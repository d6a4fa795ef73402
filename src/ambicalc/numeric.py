"""Exact probability bridge from interval structures to belief functions.

Pushing a probability on the situation space through the lower and upper maps
gives belief and plausibility; pushing it through the cells gives a mass
function with Bel(A) = sum of masses of subsets of A.  Everything is exact:
the bridge works on integer numerators over one common denominator, and
``Fraction`` appears only in the reports, the mass function and rendering.
Nothing here has a tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import FrameMismatch, SpaceMismatch, ValidationError
from .frames import Frame, SituationSpace
from .interval import (
    BasicAssignment,
    IntervalStructure,
    SetValuedMap,
    _envelope,
    axiom_report,
    witness_at,
)
from .reports import AxiomReport, Witness
from .sweeps import first_submodular_violation, smallest_witness, submodular_failure

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _common_denominator(*tables) -> int:
    """Least common denominator of every value in the tables."""
    return lcm(*{v.denominator for table in tables for v in table})


def _scale(values, den: int) -> list[int]:
    """Each value times ``den``, which its denominator must divide."""
    return [v.numerator * (den // v.denominator) for v in values]


def _subset_sums(mass: "MassFunction") -> tuple[list[int], int]:
    """Σ m(B) over B ⊆ A for every A, as integers over the masses' common
    denominator D (returned with the table): one sum-zeta transform."""
    den = _common_denominator(v for _, v in mass.masses)
    z = [0] * (1 << mass.frame.m)
    for b, value in mass.masses:
        z[b] = value.numerator * (den // value.denominator)
    size = len(z)
    bit = 1
    while bit < size:
        z = [v + z[a ^ bit] if a & bit else v for a, v in enumerate(z)]
        bit <<= 1
    return z, den


def parse_rational(value) -> Fraction:
    """Accept 'p/q' in ASCII digits, in lowest terms or not, or a plain integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        return Fraction(value)
    raise ValueError(f"not a rational literal: {value!r}")


def render_rational(value: Fraction) -> str:
    """Lowest terms; integers render without a denominator."""
    return str(value)


@dataclass(frozen=True)
class ProbabilityAssignment:
    """Exact probability weights, one per situation, summing to 1.

    Validation also records the weights as integer ``numerators`` over their
    least common ``denominator`` D, and ``_scaled_of(mask)`` gives P(mask)·D
    as an integer, without the mask check of ``of``.
    """

    space: SituationSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.space.n:
            raise ValidationError("need exactly one weight per situation")
        for name, w in zip(self.space.names, self.weights):
            if not isinstance(w, Fraction):
                raise ValidationError(f"weight of {name} is not a rational")
            if w < 0:
                raise ValidationError(f"weight of {name} is negative")
        den = _common_denominator(self.weights)
        nums = tuple(_scale(self.weights, den))
        if sum(nums) != den:
            raise ValidationError(f"weights sum to {Fraction(sum(nums), den)}, not 1")
        # P(S)·D for a situation mask S is the sum of one lookup per chunk of
        # eight situations
        tables = []
        for k in range(0, len(nums), 8):
            table = [0]
            for w in nums[k : k + 8]:
                table += [v + w for v in table]
            tables.append(table)
        if len(tables) == 1:
            scaled = tables[0].__getitem__
        else:

            def scaled(mask: int) -> int:
                total = 0
                for table in tables:
                    total += table[mask & 0xFF]
                    mask >>= 8
                return total

        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "_scaled_of", scaled)

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
        return cls(frame, tuple(masses.items()))

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
        # the checks run on numerators over one common denominator
        den = _common_denominator(self.bel, self.pl, self.alpha)
        bel = _scale(self.bel, den)
        pl = _scale(self.pl, den)
        alpha = _scale(self.alpha, den)
        for mask in range(size):
            b, p = bel[mask], pl[mask]
            if not 0 <= b <= p <= den:
                raise ValidationError(
                    f"need 0 ≤ Bel ≤ Pl ≤ 1 at {self.frame.format_subset(mask)}"
                )
            if alpha[mask] != p - b:
                raise ValidationError(
                    f"α must equal Pl − Bel at {self.frame.format_subset(mask)}"
                )
        if bel[0] != 0 or pl[0] != 0:
            raise ValidationError("Bel(∅) and Pl(∅) must be 0")
        full = size - 1
        if bel[full] != den or pl[full] != den:
            raise ValidationError("Bel(Θ) and Pl(Θ) must be 1")


def belief_from_structure(s: IntervalStructure, p: ProbabilityAssignment) -> BeliefReport:
    """Bel(A) = P(lower(A)), Pl(A) = P(upper(A)), α(A) = P(upper(A) − lower(A)).

    All three are computed as integers over the weights' common denominator;
    each distinct value becomes a ``Fraction`` once.  α is the probability of
    the gap itself, not Pl − Bel, so ``BeliefReport``'s check α = Pl − Bel
    rejects a pair whose lower map is not inside its upper map.
    """
    if s.space != p.space:
        raise SpaceMismatch("structure and probability use different spaces")
    scaled = p._scaled_of
    bel = []
    pl = []
    alpha = []
    for lo, up in zip(s.lower.table, s.upper.table):
        bel.append(scaled(lo))
        pl.append(scaled(up))
        alpha.append(scaled(up & ~lo))
    den = p.denominator
    memo = {v: Fraction(v, den) for v in {*bel, *pl, *alpha}}
    get = memo.__getitem__
    return BeliefReport(
        s.frame, tuple(map(get, bel)), tuple(map(get, pl)), tuple(map(get, alpha))
    )


def mass_from_structure(s: IntervalStructure, p: ProbabilityAssignment) -> MassFunction:
    """Mass of each focal subset = probability of its cell; zero cells drop out."""
    if s.space != p.space:
        raise SpaceMismatch("structure and probability use different spaces")
    cells = s.assignment
    masses = {}
    for mask in cells.focal_masks():
        value = p._scaled_of(cells.map.table[mask])
        if value > 0:
            masses[mask] = Fraction(value, p.denominator)
    return MassFunction.from_dict(s.frame, masses)


def check_belief_identity(report: BeliefReport, mass: MassFunction) -> AxiomReport:
    """Bel(A) = Σ m(B) over B ⊆ A, and Pl(A) = 1 − Bel(¬A), both exact."""
    if report.frame != mass.frame:
        raise FrameMismatch("report and mass function use different frames")
    fr, bel, pl = report.frame, report.bel, report.pl
    z, den = _subset_sums(mass)
    unsummed = next(
        (a for a, (b, sums) in enumerate(zip(bel, z)) if b.numerator * den != sums * b.denominator),
        None,
    )
    # Pl(A) = 1 − Bel(¬A) cross-multiplied: pl·bd = (bd − bn)·pd
    uncomplemented = next(
        (
            a
            for a, (p, b) in enumerate(zip(pl, reversed(bel)))
            if p.numerator * b.denominator != (b.denominator - b.numerator) * p.denominator
        ),
        None,
    )
    return axiom_report(
        ("bel-mass-identity", witness_at(fr, unsummed, lambda a: (
            f"Bel={bel[a]} but the subset masses sum to {Fraction(z[a], den)}"
        ))),
        ("pl-complement", witness_at(fr, uncomplemented, lambda a: (
            f"Pl={pl[a]} but 1 − Bel(¬A) = {1 - bel[fr.full ^ a]}"
        ))),
    )


def structure_from_mass(
    mass: MassFunction,
) -> tuple[SituationSpace, ProbabilityAssignment, BasicAssignment, IntervalStructure]:
    """Canonical situation model of a mass function.

    One situation per focal subset, named after it, carrying its mass; each
    cell is the matching singleton, so Bel(A) = P(lower(A)) is the sum of the
    masses of the subsets of A.  A mass function with more focal subsets than
    the situation cap is refused, so every model it writes loads back.
    """
    focals = mass.focal_masks()
    cap = SituationSpace.MAX_SITUATIONS
    if len(focals) > cap:
        raise ValidationError(
            f"mass function has {len(focals)} focal elements; its canonical model "
            f"needs one situation each, and the cap is {cap}"
        )
    names = tuple("w_" + mass.frame.subset_key(mask) for mask in focals)
    space = SituationSpace(names)
    weights = tuple(value for _, value in mass.masses)
    prob = ProbabilityAssignment(space, weights)
    size = 1 << mass.frame.m
    cells = [0] * size
    for k, mask in enumerate(focals):
        cells[mask] = 1 << k
    # one singleton cell per nonempty focal subset: a basic assignment
    j = BasicAssignment(SetValuedMap(mass.frame, space, tuple(cells)))
    return space, prob, j, _envelope(j)


def fishburn_report(report: BeliefReport) -> AxiomReport:
    """Numeric ambiguity axioms for α: zero at ∅ and nonnegative, complement
    symmetric, submodular over pairs, plus the derived zero at Θ."""
    fr, full, alpha = report.frame, report.frame.full, report.alpha
    # scale to a common denominator once so every test runs on integers
    scaled = _scale(alpha, _common_denominator(alpha))
    negative = 0 if scaled[0] else next((a for a, v in enumerate(scaled) if v < 0), None)
    asymmetric = next((a for a in range(len(scaled)) if scaled[a] != scaled[full ^ a]), None)
    fault = (submodular_failure(scaled), None)  # α3 is not set-valued: no situations
    supermodular = smallest_witness(fault, first_submodular_violation, scaled)
    return axiom_report(
        ("α1", witness_at(fr, negative, lambda a: (
            f"α = {alpha[a]} < 0" if a else f"α(∅) = {alpha[0]}"
        ))),
        ("α2", witness_at(fr, asymmetric, lambda a: (
            f"α(A)={alpha[a]} but α(¬A)={alpha[full ^ a]}"
        ))),
        ("α3", witness_at(fr, supermodular, lambda a, b: (
            f"α(A∩B)+α(A∪B)={alpha[a & b] + alpha[a | b]} > α(A)+α(B)={alpha[a] + alpha[b]}"
        ))),
        ("α(Θ)=0", Witness(subset_a=full, detail=f"α(Θ) = {alpha[full]}")
         if scaled[full] else None),
    )
