"""Exact probability bridge from interval structures to belief functions.

Pushing a probability on the situation space through the lower and upper maps
gives belief and plausibility; pushing it through the cells gives a mass
function with Bel(A) = sum of masses of subsets of A.  Everything is exact
and held as integers: a probability, a mass function and a belief report each
store integer numerators over one denominator, in lowest terms, so equal
values have equal numerators.  ``Fraction`` appears only in the cached
``weights``, ``masses``, ``bel``, ``pl`` and ``alpha`` views, in witness and
error texts, in parsing and in rendering.  Nothing here has a tolerance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add

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
from .sweeps import joins, submodular_failure, zeta

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _render(num: int, den: int) -> str:
    """num/den as the reports write it: lowest terms, integers bare."""
    return render_rational(Fraction(num, den))


def _fraction_tables(den: int, *tables) -> list[tuple[Fraction, ...]]:
    """Each table of numerators over ``den`` as Fractions; each distinct value
    becomes a ``Fraction`` once."""
    memo = {v: Fraction(v, den) for v in set().union(*tables)}
    get = memo.__getitem__
    return [tuple(map(get, table)) for table in tables]


def _require_denominator(den) -> None:
    if type(den) is not int or den < 1:
        raise ValidationError("the denominator must be a positive integer")


def _subset_sums(mass: "MassFunction") -> list[int]:
    """Σ m(B) over B ⊆ A for every A, as integers over the masses'
    denominator: one sum-zeta transform."""
    z = [0] * (1 << mass.frame.m)
    for b, value in mass.numerators:
        z[b] = value
    return zeta(z, add)


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


def as_numerators(values) -> tuple[tuple[int, ...], int]:
    """Parsed rationals as integer numerators over their least common
    denominator, the form the bridge stores."""
    values = tuple(values)
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@dataclass(frozen=True)
class ProbabilityAssignment:
    """Exact probability weights, one per situation, summing to 1.

    The weights are integer ``numerators`` over one ``denominator`` D, kept in
    lowest terms; ``weights`` is their ``Fraction`` view.  ``_scaled_of(mask)``
    gives P(mask)·D as an integer, without the mask check of ``of``.
    """

    space: SituationSpace
    numerators: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        nums = tuple(self.numerators)
        if len(nums) != self.space.n:
            raise ValidationError("need exactly one weight per situation")
        for name, w in zip(self.space.names, nums):
            if isinstance(w, Fraction):
                raise ValidationError(f"weight of {name} must be an integer numerator")
            if type(w) is not int:
                raise ValidationError(f"weight of {name} is not a rational")
            if w < 0:
                raise ValidationError(f"weight of {name} is negative")
        den = self.denominator
        _require_denominator(den)
        if sum(nums) != den:
            raise ValidationError(f"weights sum to {_render(sum(nums), den)}, not 1")
        g = gcd(den, *nums)
        if g > 1:
            nums, den = tuple(w // g for w in nums), den // g
        # P(S)·D for a situation mask S is the sum of one lookup per chunk of
        # eight situations
        tables = [joins(nums[k : k + 8], add) for k in range(0, len(nums), 8)]
        if len(tables) == 1:
            scaled = tables[0].__getitem__
        else:

            def scaled(mask: int) -> int:
                total = 0
                for table in tables:
                    total += table[mask & 0xFF]
                    mask >>= 8
                return total

        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "_scaled_of", scaled)

    @classmethod
    def from_integers(cls, space: SituationSpace, raw: list[int]) -> "ProbabilityAssignment":
        """Weights proportional to ``raw``."""
        return cls(space, tuple(raw), sum(raw))

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return _fraction_tables(self.denominator, self.numerators)[0]

    def of(self, mask: int) -> Fraction:
        """Probability of a set of situations, summed weight by weight: the
        reference the tests hold ``_scaled_of`` and the bridge to."""
        self.space.check_mask(mask)
        total = 0
        while mask:
            low = mask & -mask
            total += self.numerators[low.bit_length() - 1]
            mask ^= low
        return Fraction(total, self.denominator)


@dataclass(frozen=True)
class MassFunction:
    """Sparse positive masses on nonempty focal subsets, summing to 1.

    The masses are (focal mask, integer numerator) pairs in mask order over
    one ``denominator``, kept in lowest terms; ``numerators`` may be given as
    a mapping.  ``masses`` is their ``Fraction`` view.
    """

    frame: Frame
    numerators: tuple[tuple[int, int], ...]
    denominator: int

    def __post_init__(self):
        items = tuple(sorted(dict(self.numerators).items()))
        den = self.denominator
        _require_denominator(den)
        for mask, value in items:
            self.frame.check_mask(mask)
            if mask == 0:
                raise ValidationError("the empty set cannot carry mass")
            if isinstance(value, Fraction):
                raise ValidationError(
                    f"mass of {self.frame.format_subset(mask)} must be an integer numerator"
                )
            if type(value) is not int or value <= 0:
                raise ValidationError(
                    f"mass of {self.frame.format_subset(mask)} must be a positive rational"
                )
        total = sum(value for _, value in items)
        if total != den:
            raise ValidationError(f"masses sum to {_render(total, den)}, not 1")
        g = gcd(den, *(value for _, value in items))
        if g > 1:
            items, den = tuple((mask, value // g) for mask, value in items), den // g
        object.__setattr__(self, "numerators", items)
        object.__setattr__(self, "denominator", den)

    def focal_masks(self) -> tuple[int, ...]:
        return tuple(mask for mask, _ in self.numerators)

    @cached_property
    def masses(self) -> tuple[tuple[int, Fraction], ...]:
        values = _fraction_tables(self.denominator, [v for _, v in self.numerators])[0]
        return tuple(zip(self.focal_masks(), values))


@dataclass(frozen=True)
class BeliefReport:
    """Dense Bel/Pl/α tables over all subsets of the frame.

    Each table holds integer numerators over the one ``denominator``, kept in
    lowest terms; ``bel``, ``pl`` and ``alpha`` are their ``Fraction`` views.
    """

    frame: Frame
    bel_num: tuple[int, ...]
    pl_num: tuple[int, ...]
    alpha_num: tuple[int, ...]
    denominator: int

    def __post_init__(self):
        bel, pl, alpha, den = self.bel_num, self.pl_num, self.alpha_num, self.denominator
        size = 1 << self.frame.m
        if not (len(bel) == len(pl) == len(alpha) == size):
            raise ValidationError("tables must cover every subset of the frame")
        _require_denominator(den)
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
        if bel[-1] != den or pl[-1] != den:
            raise ValidationError("Bel(Θ) and Pl(Θ) must be 1")
        g = gcd(den, *bel, *pl)  # α = Pl − Bel shares every common factor
        if g > 1:
            for name, table in (("bel_num", bel), ("pl_num", pl), ("alpha_num", alpha)):
                object.__setattr__(self, name, tuple(v // g for v in table))
            object.__setattr__(self, "denominator", den // g)

    @cached_property
    def _views(self) -> list[tuple[Fraction, ...]]:
        return _fraction_tables(self.denominator, self.bel_num, self.pl_num, self.alpha_num)

    @property
    def bel(self) -> tuple[Fraction, ...]:
        return self._views[0]

    @property
    def pl(self) -> tuple[Fraction, ...]:
        return self._views[1]

    @property
    def alpha(self) -> tuple[Fraction, ...]:
        return self._views[2]


def belief_from_structure(s: IntervalStructure, p: ProbabilityAssignment) -> BeliefReport:
    """Bel(A) = P(lower(A)), Pl(A) = P(upper(A)), α(A) = P(upper(A) − lower(A)).

    All three are integers over the weights' denominator.  α is the
    probability of the gap itself, not Pl − Bel, so ``BeliefReport``'s check
    α = Pl − Bel rejects a pair whose lower map is not inside its upper map.
    """
    if s.space != p.space:
        raise SpaceMismatch("structure and probability use different spaces")
    scaled = p._scaled_of
    lower, upper = s.lower.table, s.upper.table
    alpha = tuple([scaled(up & ~lo) for lo, up in zip(lower, upper)])
    return BeliefReport(
        s.frame, tuple(map(scaled, lower)), tuple(map(scaled, upper)), alpha, p.denominator
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
            masses[mask] = value
    return MassFunction(s.frame, masses, p.denominator)


def check_belief_identity(report: BeliefReport, mass: MassFunction) -> AxiomReport:
    """Bel(A) = Σ m(B) over B ⊆ A, and Pl(A) = 1 − Bel(¬A), both exact."""
    if report.frame != mass.frame:
        raise FrameMismatch("report and mass function use different frames")
    fr, bel, pl, den = report.frame, report.bel_num, report.pl_num, report.denominator
    z, mass_den = _subset_sums(mass), mass.denominator
    # Bel·D_m = Σ·D across the two denominators
    unsummed = next(
        (a for a, (b, sums) in enumerate(zip(bel, z)) if b * mass_den != sums * den), None
    )
    uncomplemented = next(
        (a for a, (p, b) in enumerate(zip(pl, reversed(bel))) if p != den - b), None
    )
    return axiom_report(
        ("bel-mass-identity", witness_at(fr, unsummed, lambda a: (
            f"Bel={_render(bel[a], den)} but the subset masses sum to {_render(z[a], mass_den)}"
        ))),
        ("pl-complement", witness_at(fr, uncomplemented, lambda a: (
            f"Pl={_render(pl[a], den)} but 1 − Bel(¬A) = {_render(den - bel[fr.full ^ a], den)}"
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
    weights = tuple(value for _, value in mass.numerators)
    prob = ProbabilityAssignment(space, weights, mass.denominator)
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
    fr, full = report.frame, report.frame.full
    alpha, den = report.alpha_num, report.denominator
    negative = 0 if alpha[0] else next((a for a, v in enumerate(alpha) if v < 0), None)
    asymmetric = next((a for a in range(len(alpha)) if alpha[a] != alpha[full ^ a]), None)
    return axiom_report(
        ("α1", witness_at(fr, negative, lambda a: (
            f"α = {_render(alpha[a], den)} < 0" if a else f"α(∅) = {_render(alpha[0], den)}"
        ))),
        ("α2", witness_at(fr, asymmetric, lambda a: (
            f"α(A)={_render(alpha[a], den)} but α(¬A)={_render(alpha[full ^ a], den)}"
        ))),
        ("α3", witness_at(fr, submodular_failure(alpha), lambda a, b: (
            f"α(A∩B)+α(A∪B)={_render(alpha[a & b] + alpha[a | b], den)}"
            f" > α(A)+α(B)={_render(alpha[a] + alpha[b], den)}"
        ))),
        ("α(Θ)=0", Witness(subset_a=full, detail=f"α(Θ) = {_render(alpha[full], den)}")
         if alpha[full] else None),
    )
