"""Exact probability bridge from interval structures to belief functions.

Pushing a probability on the situation space through the lower and upper maps
gives belief and plausibility; pushing it through the cells gives a mass
function with Bel(A) = sum of masses of subsets of A.  Everything is computed
in exact rationals; nothing here has a tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    EmptyMass,
    FrameMismatch,
    InternalInvariantFailure,
    SpaceMismatch,
    ValidationError,
)
from .frames import Frame, SituationSpace
from .interval import (
    BasicAssignment,
    IntervalStructure,
    SetValuedMap,
    extract_assignment,
    structure_from_assignment,
)
from .reports import AxiomReport, Witness, failed, passed
from .sweeps import SweepPolicy, first_submodular_violation, pair_samples, submodular_failure

Rational = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(value) -> Fraction:
    """Accept 'p/q' in lowest-terms-or-not, or a plain integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        return Fraction(value)
    raise ValueError(f"not a rational literal: {value!r}")


def render_rational(value: Fraction) -> str:
    """Lowest terms; integers render without a denominator."""
    return str(value)


@dataclass(frozen=True)
class ProbabilityAssignment:
    """Exact probability weights, one per situation, summing to 1."""

    space: SituationSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.space.n:
            raise ValidationError("need exactly one weight per situation")
        total = Fraction(0)
        for name, w in zip(self.space.names, self.weights):
            if not isinstance(w, Fraction):
                raise ValidationError(f"weight of {name} is not a rational")
            if w < 0:
                raise ValidationError(f"weight of {name} is negative")
            total += w
        if total != 1:
            raise ValidationError(f"weights sum to {total}, not 1")

    @classmethod
    def from_integers(cls, space: SituationSpace, raw: list[int]) -> "ProbabilityAssignment":
        total = sum(raw)
        return cls(space, tuple(Fraction(w, total) for w in raw))

    def of(self, mask: int) -> Fraction:
        """Probability of a set of situations."""
        self.space.check_mask(mask)
        total = Fraction(0)
        while mask:
            low = mask & -mask
            total += self.weights[low.bit_length() - 1]
            mask ^= low
        return total


@dataclass(frozen=True)
class MassFunction:
    """Sparse positive masses on nonempty focal subsets, summing to 1."""

    frame: Frame
    masses: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        items = tuple(sorted(dict(self.masses).items()))
        object.__setattr__(self, "masses", items)
        total = Fraction(0)
        for mask, value in items:
            self.frame.check_mask(mask)
            if mask == 0:
                raise ValidationError("the empty set cannot carry mass")
            if not isinstance(value, Fraction) or value <= 0:
                raise ValidationError(
                    f"mass of {self.frame.format_subset(mask)} must be a positive rational"
                )
            total += value
        if total != 1:
            raise ValidationError(f"masses sum to {total}, not 1")

    @classmethod
    def from_dict(cls, frame: Frame, masses) -> "MassFunction":
        return cls(frame, tuple(sorted(masses.items())))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.masses)

    def focal_masks(self) -> tuple[int, ...]:
        return tuple(mask for mask, _ in self.masses)


@dataclass(frozen=True)
class BeliefReport:
    """Dense Bel/Pl/α tables over all subsets of the frame."""

    frame: Frame
    bel: tuple[Fraction, ...]
    pl: tuple[Fraction, ...]
    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        size = 1 << self.frame.m
        if not (len(self.bel) == len(self.pl) == len(self.alpha) == size):
            raise ValidationError("tables must cover every subset of the frame")
        for mask in range(size):
            b, p, al = self.bel[mask], self.pl[mask], self.alpha[mask]
            if not 0 <= b <= p <= 1:
                raise ValidationError(
                    f"need 0 ≤ Bel ≤ Pl ≤ 1 at {self.frame.format_subset(mask)}"
                )
            if al != p - b:
                raise ValidationError(
                    f"α must equal Pl − Bel at {self.frame.format_subset(mask)}"
                )
        if self.bel[0] != 0 or self.pl[0] != 0:
            raise ValidationError("Bel(∅) and Pl(∅) must be 0")
        full = size - 1
        if self.bel[full] != 1 or self.pl[full] != 1:
            raise ValidationError("Bel(Θ) and Pl(Θ) must be 1")


def belief_from_structure(s: IntervalStructure, p: ProbabilityAssignment) -> BeliefReport:
    """Bel(A) = P(lower(A)), Pl(A) = P(upper(A)), α(A) = P(upper(A) − lower(A))."""
    if s.space != p.space:
        raise SpaceMismatch("structure and probability use different spaces")
    bel = []
    pl = []
    alpha = []
    for lo, up in zip(s.lower.table, s.upper.table):
        b = p.of(lo)
        u = p.of(up)
        gap = p.of(up & ~lo)
        if gap != u - b:
            raise InternalInvariantFailure("gap probability disagrees with Pl − Bel")
        bel.append(b)
        pl.append(u)
        alpha.append(gap)
    return BeliefReport(s.frame, tuple(bel), tuple(pl), tuple(alpha))


def mass_from_structure(s: IntervalStructure, p: ProbabilityAssignment) -> MassFunction:
    """Mass of each focal subset = probability of its cell; zero cells drop out."""
    if s.space != p.space:
        raise SpaceMismatch("structure and probability use different spaces")
    cells = extract_assignment(s)
    masses = {}
    for mask in cells.focal_masks():
        value = p.of(cells.map.table[mask])
        if value > 0:
            masses[mask] = value
    if not masses:
        raise InternalInvariantFailure("a partition of the space lost all its mass")
    return MassFunction.from_dict(s.frame, masses)


def check_belief_identity(report: BeliefReport, mass: MassFunction) -> AxiomReport:
    """Bel(A) = Σ m(B) over B ⊆ A, and Pl(A) = 1 − Bel(¬A), both exact."""
    if report.frame != mass.frame:
        raise FrameMismatch("report and mass function use different frames")
    fr = report.frame
    size = 1 << fr.m
    full = fr.full
    verdicts = []
    hit = None
    for a in range(size):
        total = Fraction(0)
        for b, value in mass.masses:
            if b & ~a == 0:
                total += value
        if total != report.bel[a]:
            hit = (a, total)
            break
    if hit is None:
        verdicts.append(passed("bel-mass-identity"))
    else:
        a, total = hit
        detail = (
            f"A={fr.format_subset(a)}: Bel={report.bel[a]} but the subset masses sum to {total}"
        )
        verdicts.append(failed("bel-mass-identity", Witness(subset_a=a, detail=detail)))
    hit = None
    for a in range(size):
        if report.pl[a] != 1 - report.bel[full ^ a]:
            hit = a
            break
    if hit is None:
        verdicts.append(passed("pl-complement"))
    else:
        detail = (
            f"A={fr.format_subset(hit)}: Pl={report.pl[hit]} but "
            f"1 − Bel(¬A) = {1 - report.bel[full ^ hit]}"
        )
        verdicts.append(failed("pl-complement", Witness(subset_a=hit, detail=detail)))
    return AxiomReport(tuple(verdicts))


def structure_from_mass(
    mass: MassFunction,
) -> tuple[SituationSpace, ProbabilityAssignment, BasicAssignment, IntervalStructure]:
    """Canonical situation model of a mass function.

    One situation per focal subset, named after it, carrying its mass; each
    cell is the matching singleton.  The reported beliefs then match the
    subset-mass sums exactly.
    """
    focals = mass.focal_masks()
    if not focals:
        raise EmptyMass("mass function has no focal elements")
    names = tuple("w_" + mass.frame.subset_key(mask) for mask in focals)
    space = SituationSpace(names, cap=max(SituationSpace.DEFAULT_CAP, len(names)))
    weights = tuple(value for _, value in mass.masses)
    prob = ProbabilityAssignment(space, weights)
    size = 1 << mass.frame.m
    cells = [0] * size
    for k, mask in enumerate(focals):
        cells[mask] = 1 << k
    j = BasicAssignment(SetValuedMap(mass.frame, space, tuple(cells)))
    s = structure_from_assignment(j)
    report = belief_from_structure(s, prob)
    lookup = mass.as_dict()
    for a in range(size):
        expected = sum((v for b, v in lookup.items() if b & ~a == 0), Fraction(0))
        if report.bel[a] != expected:
            raise InternalInvariantFailure("canonical model does not reproduce the masses")
    return space, prob, j, s


def fishburn_report(report: BeliefReport, policy: SweepPolicy | None = None) -> AxiomReport:
    """Numeric ambiguity axioms for α: zero at ∅ and nonnegative, complement
    symmetric, submodular over pairs, plus the derived zero at Θ."""
    fr = report.frame
    size = 1 << fr.m
    full = fr.full
    alpha = report.alpha
    verdicts = []

    hit = None
    if alpha[0] != 0:
        hit = (0, f"α(∅) = {alpha[0]}")
    else:
        for a in range(size):
            if alpha[a] < 0:
                hit = (a, f"α = {alpha[a]} < 0")
                break
    if hit is None:
        verdicts.append(passed("α1"))
    else:
        a, text = hit
        verdicts.append(
            failed("α1", Witness(subset_a=a, detail=f"A={fr.format_subset(a)}: {text}"))
        )

    hit = None
    for a in range(size):
        if alpha[a] != alpha[full ^ a]:
            hit = a
            break
    if hit is None:
        verdicts.append(passed("α2"))
    else:
        detail = (
            f"A={fr.format_subset(hit)}: α(A)={alpha[hit]} but α(¬A)={alpha[full ^ hit]}"
        )
        verdicts.append(failed("α2", Witness(subset_a=hit, detail=detail)))

    # scale to a common denominator once so the pair tests run on integers
    den = lcm(*(v.denominator for v in alpha)) if size else 1
    scaled = [v.numerator * (den // v.denominator) for v in alpha]
    hit = submodular_failure(scaled)
    if hit is not None:
        hit = first_submodular_violation(scaled, size, pair_samples(fr.m, policy)) or hit
    if hit is None:
        verdicts.append(passed("α3"))
    else:
        a, b = hit
        detail = (
            f"A={fr.format_subset(a)}, B={fr.format_subset(b)}: "
            f"α(A∩B)+α(A∪B)={alpha[a & b] + alpha[a | b]} > "
            f"α(A)+α(B)={alpha[a] + alpha[b]}"
        )
        verdicts.append(failed("α3", Witness(subset_a=a, subset_b=b, detail=detail)))

    if alpha[full] == 0:
        verdicts.append(passed("α(Θ)=0"))
    else:
        verdicts.append(
            failed(
                "α(Θ)=0",
                Witness(subset_a=full, detail=f"α(Θ) = {alpha[full]}"),
            )
        )
    return AxiomReport(tuple(verdicts))
