"""Interval structures: dual lower/upper set-valued maps and their axioms.

A set-valued map sends every subset of the frame to a set of situations.  An
interval structure is a pair (lower, upper) tied together by the duality
lower(A) = ¬upper(¬A), with the upper map distributing over unions.  Such a
pair is exactly the envelope of a basic assignment: a disjoint, space-covering
family of cells indexed by subsets of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .errors import (
    AssignmentAxiomViolation,
    DualityViolation,
    FrameMismatch,
    InternalInvariantFailure,
    MaskOutOfRange,
    SpaceMismatch,
    UpperAxiomViolation,
)
from .frames import Frame, SituationSpace
from .reports import AxiomReport, Verdict, Witness, merge
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
    or structure_from_assignment.  Every function that takes a structure
    trusts it to be valid and checks none of its axioms again; only the
    checkers and the oracle take the unvalidated pairs that ``load_object``
    reads and fault injection makes."""

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


def axiom_report(*rows) -> AxiomReport:
    """The report of ``(axiom, witness)`` rows, in order: a row passes when
    its witness is None."""
    return AxiomReport(tuple([Verdict(axiom, w is None, w) for axiom, w in rows]))


def witness_at(frame: Frame, hit, text) -> Witness | None:
    """None when ``hit`` is None.  Else the witness at ``hit``, a subset A
    or a pair (A, B), whose detail is "A=…: " or "A=…, B=…: " and then
    ``text(*hit)``; ``text`` runs only here, on a failure."""
    if hit is None:
        return None
    name = frame.format_subset
    if isinstance(hit, tuple):
        a, b = hit
        return Witness(subset_a=a, subset_b=b, detail=f"A={name(a)}, B={name(b)}: {text(a, b)}")
    return Witness(subset_a=hit, detail=f"A={name(hit)}: {text(hit)}")


def image_at(m: SetValuedMap, a: int, wanted: int, label: str) -> Witness | None:
    """None when ``m``'s image at ``a`` (∅ or Θ) is ``wanted``, else the
    witness "``label`` is …" naming the image."""
    got = m.table[a]
    if got == wanted:
        return None
    return Witness(subset_a=a, detail=f"{label} is {m.space.format_subset(got)}")


def containment_at(
    x: SetValuedMap, y: SetValuedMap, xname: str, yname: str
) -> Witness | None:
    """None when x(A) ⊆ y(A) for every A, else the witness at the first A
    where that fails."""
    xt, yt = x.table, y.table
    name = x.space.format_subset
    hit = next((a for a in range(len(xt)) if xt[a] & ~yt[a]), None)
    return witness_at(x.frame, hit, lambda a: f"{xname} {name(xt[a])} ⊄ {yname} {name(yt[a])}")


def require(report: AxiomReport, error) -> None:
    """Raise ``error`` with ``report`` when a verdict fails, naming the
    first failing axiom and its witness."""
    for v in report.verdicts:
        if not v.ok:
            raise error(f"{v.axiom} fails: {v.witness.detail}", report=report)


def pair_at(m: SetValuedMap, test, scan, text) -> Witness | None:
    """``witness_at`` the pair that ``smallest_witness`` picks for the pair
    axiom whose exact ``test`` and smallest-pair ``scan`` run on m's table."""
    t = m.table
    return witness_at(m.frame, smallest_witness(test(t), scan, t), text)


def check_upper_axioms(m: SetValuedMap) -> AxiomReport:
    """Empty fixpoint, full fixpoint, union distribution, and the derived
    intersection bound.  The bound must pass whenever the first three do."""
    t, name = m.table, m.space.format_subset
    return axiom_report(
        ("f̄1", image_at(m, 0, 0, "image of ∅")),
        ("f̄2", image_at(m, m.frame.full, m.space.full, "image of Θ")),
        ("f̄3", pair_at(m, union_hom_failure, first_union_hom_violation, lambda a, b: (
            f"image of A∪B is {name(t[a | b])} vs union of images is {name(t[a] | t[b])}"
        ))),
        ("f̄4", pair_at(m, monotone_failure, first_inter_bound_violation, lambda a, b: (
            f"image of A∩B is {name(t[a & b])} "
            f"vs intersection of images is {name(t[a] & t[b])}"
        ))),
    )


def check_lower_axioms(m: SetValuedMap) -> AxiomReport:
    """Mirror of the upper axioms: intersection distribution with a derived
    union bound."""
    t, name = m.table, m.space.format_subset
    return axiom_report(
        ("f1", image_at(m, 0, 0, "image of ∅")),
        ("f2", image_at(m, m.frame.full, m.space.full, "image of Θ")),
        ("f3", pair_at(m, inter_hom_failure, first_inter_hom_violation, lambda a, b: (
            f"image of A∩B is {name(t[a & b])} "
            f"vs intersection of images is {name(t[a] & t[b])}"
        ))),
        ("f4", pair_at(m, monotone_failure, first_union_bound_violation, lambda a, b: (
            f"union of images is {name(t[a] | t[b])} vs image of A∪B is {name(t[a | b])}"
        ))),
    )


def check_duality(lower: SetValuedMap, upper: SetValuedMap) -> AxiomReport:
    omega, full = lower.space.full, lower.frame.full
    lt, ut = lower.table, upper.table
    name = lower.space.format_subset
    hit = next((a for a in range(len(lt)) if lt[a] != omega ^ ut[full ^ a]), None)
    return axiom_report(("duality", witness_at(lower.frame, hit, lambda a: (
        f"lower image {name(lt[a])} vs complement of upper ¬A image {name(omega ^ ut[full ^ a])}"
    ))))


def _require_same_universes(x, y, what: str):
    """The one guard that two objects, each with a frame and a space, share
    both: ``what`` names the pair in the error."""
    if x.frame != y.frame:
        raise FrameMismatch(f"{what} use different frames")
    if x.space != y.space:
        raise SpaceMismatch(f"{what} use different spaces")


def check_structure(lower: SetValuedMap, upper: SetValuedMap) -> AxiomReport:
    """Full axiom suite for a candidate (lower, upper) pair, without raising."""
    _require_same_universes(lower, upper, "lower/upper maps")
    return merge(
        check_upper_axioms(upper),
        check_duality(lower, upper),
        check_lower_axioms(lower),
        axiom_report(("sandwich", containment_at(lower, upper, "lower", "upper"))),
    )


def make_interval_structure(lower: SetValuedMap, upper: SetValuedMap) -> IntervalStructure:
    """Validate and wrap a (lower, upper) pair.

    The upper axioms and the duality are the defining conditions, and the
    only ones checked: once they hold, the lower axioms and the sandwich
    lower ⊆ upper are theorems.
    """
    _require_same_universes(lower, upper, "lower/upper maps")
    require(check_upper_axioms(upper), UpperAxiomViolation)
    require(check_duality(lower, upper), DualityViolation)
    return IntervalStructure(lower, upper)


def check_assignment(m: SetValuedMap) -> AxiomReport:
    """Basic-assignment axioms: empty cell at ∅, space coverage, disjointness."""
    t, sp = m.table, m.space
    uncovered = sp.full & ~reduce(or_, t, 0)
    w = (uncovered & -uncovered).bit_length() - 1  # the lowest uncovered situation
    return axiom_report(
        ("j1", image_at(m, 0, 0, "cell of ∅")),
        ("j2", Witness(situation=w, detail=f"situation {sp.names[w]} lies in no cell")
         if uncovered else None),
        ("j3", pair_at(m, overlap_failure, first_overlap_violation, lambda a, b: (
            f"cells overlap in {sp.format_subset(t[a] & t[b])} vs expected disjoint"
        ))),
    )


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
    over the maximal ones: cells(A) = lower(A) − ∪_{x∈A} lower(A−x).  ``s``
    is a valid structure, so the cells partition the space and rebuild its
    lower map; neither is checked again.
    """
    lt = s.lower.table
    size = len(lt)
    below = [0] * size
    bit = 1
    while bit < size:
        below = [v | lt[a ^ bit] if a & bit else v for a, v in enumerate(below)]
        bit <<= 1
    cells_t = tuple(low & ~strict for low, strict in zip(lt, below))
    return BasicAssignment(SetValuedMap(s.frame, s.space, cells_t))


def structure_from_assignment(j: BasicAssignment) -> IntervalStructure:
    """Build the interval structure whose cells are ``j``; it carries ``j``
    as its ``assignment``.  ``j`` must pass the assignment axioms."""
    require(check_assignment(j.map), AssignmentAxiomViolation)
    return _envelope(j)


def _envelope(j: BasicAssignment) -> IntervalStructure:
    """The structure of ``structure_from_assignment``, for cells ``j`` that
    are known to be a basic assignment.

    The lower map unions cells over subsets, the upper map is its dual, and
    the direct overlap formula upper(A) = union of cells meeting A is checked
    against the dual on the side, on every subset.  Such a pair satisfies
    every structure axiom by construction, so they are not checked again.
    """
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
