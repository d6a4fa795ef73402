"""Interval structures: dual lower/upper set-valued maps and their axioms.

A set-valued map sends every subset of the frame to a set of situations.  An
interval structure is a pair (lower, upper) tied together by the duality
lower(A) = ¬upper(¬A), with the upper map distributing over unions.  Such a
pair is exactly the envelope of a basic assignment: a disjoint, space-covering
family of cells indexed by subsets of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AssignmentAxiomViolation,
    DualityViolation,
    FrameMismatch,
    InternalInvariantFailure,
    MaskOutOfRange,
    UpperAxiomViolation,
)
from .frames import Frame, SituationSpace
from .reports import AxiomReport, Verdict, Witness, failed, merge, passed
from .sweeps import (
    first_inter_bound_violation,
    first_inter_hom_violation,
    first_overlap_violation,
    first_union_bound_violation,
    first_union_hom_violation,
    inter_hom_failure,
    monotone_failure,
    overlap_failure,
    smallest_witness,
    union_hom_failure,
)


@dataclass(frozen=True)
class SetValuedMap:
    """Dense table over all 2^m proposition masks; entries are situation masks."""

    frame: Frame
    space: SituationSpace
    table: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != 1 << self.frame.m:
            raise ValueError(
                f"table has {len(self.table)} entries, need {1 << self.frame.m}"
            )
        t = self.table
        omega = self.space.full
        if set(map(type, t)) == {int} and min(t) >= 0 and max(t) <= omega:
            return
        # the walk names the first bad entry; it also accepts int subclasses
        for mask, entry in enumerate(t):
            if not isinstance(entry, int) or entry < 0 or entry > omega:
                raise MaskOutOfRange(
                    f"entry for {self.frame.format_subset(mask)} is not a situation mask"
                )

    def __getitem__(self, mask: int) -> int:
        return self.table[mask]


@dataclass(frozen=True)
class IntervalStructure:
    """A validated (lower, upper) pair.  Build through make_interval_structure
    or structure_from_assignment."""

    lower: SetValuedMap
    upper: SetValuedMap

    @cached_property
    def assignment(self) -> "BasicAssignment":
        """The basic assignment of the structure: the one it was built from,
        or else extracted once, on first use."""
        return extract_assignment(self)

    @property
    def frame(self) -> Frame:
        return self.lower.frame

    @property
    def space(self) -> SituationSpace:
        return self.lower.space


@dataclass(frozen=True)
class BasicAssignment:
    """Cells of situations indexed by subsets: disjoint and space-covering."""

    map: SetValuedMap

    @property
    def frame(self) -> Frame:
        return self.map.frame

    @property
    def space(self) -> SituationSpace:
        return self.map.space

    def focal_masks(self) -> tuple[int, ...]:
        """Subsets with a nonempty cell, ascending by mask."""
        return tuple(a for a, cell in enumerate(self.map.table) if cell)


def dual_map(m: SetValuedMap) -> SetValuedMap:
    """Complement-dual: result(A) = ¬m(¬A).  An involution."""
    full = m.frame.full
    omega = m.space.full
    table = tuple(omega ^ m.table[full ^ a] for a in range(len(m.table)))
    return SetValuedMap(m.frame, m.space, table)


def _pair_witness(m: SetValuedMap, axiom: str, pair, lhs: str, rhs: str) -> Verdict:
    a, b = pair
    fr = m.frame
    detail = f"A={fr.format_subset(a)}, B={fr.format_subset(b)}: {lhs} vs {rhs}"
    return failed(axiom, Witness(subset_a=a, subset_b=b, detail=detail))


def _check_map_axioms(m: SetValuedMap, empty: str, whole: str, pair_axioms) -> AxiomReport:
    """Image of ∅ empty (``empty``), image of Θ full (``whole``), then one
    verdict per (axiom, test, scan, on_union, rhs_first) in ``pair_axioms``;
    a witness shows the union or the intersection side of the pair."""
    t = m.table
    sp = m.space
    full = m.frame.full
    verdicts = []

    if t[0] == 0:
        verdicts.append(passed(empty))
    else:
        verdicts.append(
            failed(empty, Witness(subset_a=0, detail=f"image of ∅ is {sp.format_subset(t[0])}"))
        )
    if t[full] == sp.full:
        verdicts.append(passed(whole))
    else:
        verdicts.append(
            failed(
                whole,
                Witness(subset_a=full, detail=f"image of Θ is {sp.format_subset(t[full])}"),
            )
        )

    for axiom, test, scan, on_union, rhs_first in pair_axioms:
        hit = smallest_witness(test(t), scan, t)
        if hit is None:
            verdicts.append(passed(axiom))
            continue
        a, b = hit
        if on_union:
            sides = [
                f"image of A∪B is {sp.format_subset(t[a | b])}",
                f"union of images is {sp.format_subset(t[a] | t[b])}",
            ]
        else:
            sides = [
                f"image of A∩B is {sp.format_subset(t[a & b])}",
                f"intersection of images is {sp.format_subset(t[a] & t[b])}",
            ]
        verdicts.append(_pair_witness(m, axiom, hit, *(sides[::-1] if rhs_first else sides)))
    return AxiomReport(tuple(verdicts))


def check_upper_axioms(m: SetValuedMap) -> AxiomReport:
    """Empty fixpoint, full fixpoint, union distribution, and the derived
    intersection bound.  The bound must pass whenever the first three do."""
    return _check_map_axioms(
        m,
        "f̄1",
        "f̄2",
        (
            ("f̄3", union_hom_failure, first_union_hom_violation, True, False),
            ("f̄4", monotone_failure, first_inter_bound_violation, False, False),
        ),
    )


def check_lower_axioms(m: SetValuedMap) -> AxiomReport:
    """Mirror of the upper axioms: intersection distribution with a derived
    union bound."""
    return _check_map_axioms(
        m,
        "f1",
        "f2",
        (
            ("f3", inter_hom_failure, first_inter_hom_violation, False, False),
            ("f4", monotone_failure, first_union_bound_violation, True, True),
        ),
    )


def check_duality(lower: SetValuedMap, upper: SetValuedMap) -> AxiomReport:
    full = lower.frame.full
    omega = lower.space.full
    lt, ut = lower.table, upper.table
    for a in range(len(lt)):
        if lt[a] != omega ^ ut[full ^ a]:
            fr = lower.frame
            sp = lower.space
            detail = (
                f"A={fr.format_subset(a)}: lower image {sp.format_subset(lt[a])} "
                f"vs complement of upper ¬A image {sp.format_subset(omega ^ ut[full ^ a])}"
            )
            return AxiomReport((failed("duality", Witness(subset_a=a, detail=detail)),))
    return AxiomReport((passed("duality"),))


def _sandwich_verdict(lower: SetValuedMap, upper: SetValuedMap) -> Verdict:
    lt, ut = lower.table, upper.table
    for a in range(len(lt)):
        if lt[a] & ~ut[a]:
            sp = lower.space
            detail = (
                f"A={lower.frame.format_subset(a)}: lower {sp.format_subset(lt[a])} "
                f"⊄ upper {sp.format_subset(ut[a])}"
            )
            return failed("sandwich", Witness(subset_a=a, detail=detail))
    return passed("sandwich")


def _require_same_universes(x, y, what: str):
    if x.frame != y.frame:
        raise FrameMismatch(f"{what} built over different frames")
    if x.space != y.space:
        raise FrameMismatch(f"{what} built over different situation spaces")


def check_structure(lower: SetValuedMap, upper: SetValuedMap) -> AxiomReport:
    """Full axiom suite for a candidate (lower, upper) pair, without raising."""
    _require_same_universes(lower, upper, "lower/upper maps")
    return merge(
        check_upper_axioms(upper),
        check_duality(lower, upper),
        check_lower_axioms(lower),
        AxiomReport((_sandwich_verdict(lower, upper),)),
    )


def make_interval_structure(lower: SetValuedMap, upper: SetValuedMap) -> IntervalStructure:
    """Validate and wrap a (lower, upper) pair.

    The upper axioms and the duality are the defining conditions; the lower
    axioms and the sandwich are implied, so their failure after the first two
    pass means the engine itself is broken.
    """
    _require_same_universes(lower, upper, "lower/upper maps")
    up = check_upper_axioms(upper)
    if not up.ok:
        first = next(v for v in up.verdicts if not v.ok)
        raise UpperAxiomViolation(f"{first.axiom} fails: {first.witness.detail}", report=up)
    du = check_duality(lower, upper)
    if not du.ok:
        raise DualityViolation(
            f"duality fails: {du.verdicts[0].witness.detail}", report=du
        )
    low = check_lower_axioms(lower)
    sandwich = _sandwich_verdict(lower, upper)
    if not (low.ok and sandwich.ok):
        raise InternalInvariantFailure(
            "derived lower axioms fail although the defining axioms hold"
        )
    return IntervalStructure(lower, upper)


def check_assignment(m: SetValuedMap) -> AxiomReport:
    """Basic-assignment axioms: empty cell at ∅, space coverage, disjointness."""
    t = m.table
    sp = m.space
    verdicts = []

    if t[0] == 0:
        verdicts.append(passed("j1"))
    else:
        verdicts.append(
            failed("j1", Witness(subset_a=0, detail=f"cell of ∅ is {sp.format_subset(t[0])}"))
        )

    covered = 0
    for cell in t:
        covered |= cell
    if covered == sp.full:
        verdicts.append(passed("j2"))
    else:
        # report the lowest uncovered situation
        uncovered = ~covered & sp.full
        w = (uncovered & -uncovered).bit_length() - 1
        verdicts.append(
            failed(
                "j2",
                Witness(situation=w, detail=f"situation {sp.names[w]} lies in no cell"),
            )
        )

    hit = smallest_witness(overlap_failure(t), first_overlap_violation, t)
    if hit is None:
        verdicts.append(passed("j3"))
    else:
        a, b = hit
        verdicts.append(
            _pair_witness(
                m,
                "j3",
                hit,
                f"cells overlap in {sp.format_subset(t[a] & t[b])}",
                "expected disjoint",
            )
        )
    return AxiomReport(tuple(verdicts))


def _cells_partition(t: tuple[int, ...], omega: int, n: int) -> bool:
    """Cheap equivalent of the assignment axioms: empty ∅-cell plus an exact
    partition (union is Ω and popcounts add up to n)."""
    if t[0]:
        return False
    union = 0
    weight = 0
    for cell in t:
        union |= cell
        weight += cell.bit_count()
    return union == omega and weight == n


def lower_table_from_cells(cells: tuple[int, ...]) -> tuple[int, ...]:
    """lower(A) = union of the cells of all subsets of A: an OR-zeta
    transform, one pass per atom."""
    out = list(cells)
    size = len(out)
    bit = 1
    while bit < size:
        out = [v | out[a ^ bit] if a & bit else v for a, v in enumerate(out)]
        bit <<= 1
    return tuple(out)


def extract_assignment(s: IntervalStructure) -> BasicAssignment:
    """Recover the unique basic assignment of a structure.

    Each cell is the lower image minus the union of the lower images of all
    strict subsets.  The lower map is monotone, so that union is the union
    over the maximal ones: cells(A) = lower(A) − ∪_{x∈A} lower(A−x).
    """
    lt = s.lower.table
    size = len(lt)
    below = [0] * size
    bit = 1
    while bit < size:
        below = [v | lt[a ^ bit] if a & bit else v for a, v in enumerate(below)]
        bit <<= 1
    cells_t = tuple(low & ~strict for low, strict in zip(lt, below))

    if not _cells_partition(cells_t, s.space.full, s.space.n):
        raise InternalInvariantFailure("extracted cells do not partition the space")
    if lower_table_from_cells(cells_t) != lt:
        raise InternalInvariantFailure("extracted cells do not rebuild the lower map")
    return BasicAssignment(SetValuedMap(s.frame, s.space, cells_t))


def structure_from_assignment(j: BasicAssignment) -> IntervalStructure:
    """Build the interval structure whose cells are ``j``; it carries ``j``
    as its ``assignment``.

    The lower map unions cells over subsets, the upper map is its dual, and
    the direct overlap formula upper(A) = union of cells meeting A is checked
    against the dual on the side, on every subset.  Such a pair satisfies
    every structure axiom by construction, so they are not checked again.
    """
    report = check_assignment(j.map)
    if not report.ok:
        first = next(v for v in report.verdicts if not v.ok)
        raise AssignmentAxiomViolation(
            f"{first.axiom} fails: {first.witness.detail}", report=report
        )
    cells = j.map.table
    lower = SetValuedMap(j.frame, j.space, lower_table_from_cells(cells))
    upper = dual_map(lower)

    # direct[A] = union of the cells meeting A, checked on every subset: the
    # singleton {x} meets the cells whose subset holds x, and for larger A
    # direct[A] = direct[A−low] ∪ direct[{low}], independently of the dual
    direct = [0] * len(cells)
    for b, cell in enumerate(cells):
        rest = b if cell else 0
        while rest:
            x = rest & -rest
            direct[x] |= cell
            rest ^= x
    for a, up in enumerate(upper.table):
        if a & (a - 1):
            low = a & -a
            direct[a] = direct[a ^ low] | direct[low]
        if direct[a] != up:
            raise InternalInvariantFailure(
                "overlap formula disagrees with the dual upper map at "
                f"{j.frame.format_subset(a)}"
            )
    s = IntervalStructure(lower, upper)
    vars(s)["assignment"] = j  # fills the cached property
    return s
