"""Incidence mappings: the zero-ambiguity maps induced by point functions.

An incidence map distributes over unions and complements, which forces it to
be the preimage map of a total function g from situations to atoms.  Choosing
one atom inside each focal element of a basic assignment induces such a map
sitting between the lower and upper maps of the assignment's structure; that
is the constructive half of the decomposition upper = i ∪ a, lower = i ∩ ¬a.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .ambiguity import AmbiguityMap, ambiguity_from_interval, check_ambiguity_axioms
from .errors import (
    AmbiguityAxiomViolation,
    AssignmentAxiomViolation,
    FrameMismatch,
    IncidenceAxiomViolation,
    IncompatiblePair,
    InternalInvariantFailure,
    SelectorDomainError,
    SpaceMismatch,
)
from .frames import Frame, SituationSpace
from .interval import (
    BasicAssignment,
    IntervalStructure,
    SetValuedMap,
)
from .reports import AxiomReport, Witness, failed, passed
from .sweeps import (
    compat_failure,
    derive_seed,
    first_compat_violation,
    first_inter_hom_violation,
    first_union_hom_violation,
    inter_hom_failure,
    smallest_witness,
    union_hom_failure,
)


@dataclass(frozen=True)
class PointMap:
    """Total function from situation index to atom index."""

    targets: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.targets, tuple):
            object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class IncidenceMap:
    map: SetValuedMap
    origin: PointMap

    @property
    def frame(self) -> Frame:
        return self.map.frame

    @property
    def space(self) -> SituationSpace:
        return self.map.space


@dataclass(frozen=True)
class Selector:
    """Rule choosing one atom inside each focal element.

    ``min-index`` takes the lowest-indexed atom, ``seeded`` draws uniformly
    from a stream derived from (seed, focal mask), ``explicit`` looks the
    focal mask up in a table and fails for anything outside it.
    """

    kind: str
    seed: int | None = None
    table: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def min_index(cls) -> "Selector":
        return cls("min-index")

    @classmethod
    def seeded(cls, seed: int) -> "Selector":
        return cls("seeded", seed=seed)

    @classmethod
    def explicit(cls, table: Mapping[int, int]) -> "Selector":
        return cls("explicit", table=tuple(sorted(table.items())))

    def choose(self, focal_mask: int) -> int:
        if focal_mask <= 0:
            raise SelectorDomainError("focal element must be a nonempty subset")
        if self.kind == "min-index":
            return (focal_mask & -focal_mask).bit_length() - 1
        if self.kind == "seeded":
            rng = random.Random(derive_seed("selector", self.seed, focal_mask))
            pick = rng.randrange(focal_mask.bit_count())
            mask = focal_mask
            for _ in range(pick):
                mask &= mask - 1
            return (mask & -mask).bit_length() - 1
        lookup = dict(self.table or ())
        if focal_mask not in lookup:
            raise SelectorDomainError(f"no table entry for focal mask {focal_mask}")
        atom = lookup[focal_mask]
        if not focal_mask >> atom & 1:
            raise SelectorDomainError(
                f"table entry {atom} lies outside focal mask {focal_mask}"
            )
        return atom


def incidence_from_pointmap(g: PointMap, frame: Frame, space: SituationSpace) -> IncidenceMap:
    """Preimage map i(A) = all situations whose atom lies in A.

    The preimage map of a total function satisfies every incidence axiom by
    construction, so only the point map itself is checked."""
    if len(g.targets) != space.n:
        raise ValueError("point map must assign an atom to every situation")
    atom_cells = [0] * frame.m
    for w, atom in enumerate(g.targets):
        if not isinstance(atom, int) or not 0 <= atom < frame.m:
            raise ValueError(f"point map sends situation {w} outside the frame")
        atom_cells[atom] |= 1 << w
    size = 1 << frame.m
    table = [0] * size
    for a in range(1, size):
        low = a & -a
        table[a] = table[a ^ low] | atom_cells[low.bit_length() - 1]
    return IncidenceMap(SetValuedMap(frame, space, tuple(table)), g)


def incidence_from_map(m: SetValuedMap) -> IncidenceMap:
    """Admit a raw set-valued map as an incidence map.

    The axioms are checked in full and the point map is rebuilt from the
    singleton images, which must partition the space.
    """
    report = check_incidence_axioms(m)
    if not report.ok:
        first = next(v for v in report.verdicts if not v.ok)
        raise IncidenceAxiomViolation(
            f"{first.axiom} fails: {first.witness.detail}", report=report
        )
    targets: list[int | None] = [None] * m.space.n
    for atom in range(m.frame.m):
        cell = m.table[1 << atom]
        for w in range(m.space.n):
            if cell >> w & 1:
                if targets[w] is not None:
                    raise IncidenceAxiomViolation(
                        f"situation {m.space.names[w]} lies in two singleton images"
                    )
                targets[w] = atom
    if any(t is None for t in targets):
        w = targets.index(None)
        raise IncidenceAxiomViolation(
            f"situation {m.space.names[w]} lies in no singleton image"
        )
    return IncidenceMap(m, PointMap(tuple(targets)))


def check_incidence_axioms(m: SetValuedMap) -> AxiomReport:
    """Axioms i1 (empty at ∅), i2 (full at Θ), i3 (union distribution),
    i4 (complement exchange), plus the derived i3' (intersection
    distribution)."""
    t = m.table
    size = len(t)
    fr = m.frame
    sp = m.space
    full = fr.full
    verdicts = []

    if t[0] == 0:
        verdicts.append(passed("i1"))
    else:
        verdicts.append(
            failed("i1", Witness(subset_a=0, detail=f"image of ∅ is {sp.format_subset(t[0])}"))
        )
    if t[full] == sp.full:
        verdicts.append(passed("i2"))
    else:
        verdicts.append(
            failed(
                "i2",
                Witness(subset_a=full, detail=f"image of Θ is {sp.format_subset(t[full])}"),
            )
        )

    hit = smallest_witness(union_hom_failure(t), first_union_hom_violation, t)
    if hit is None:
        verdicts.append(passed("i3"))
    else:
        a, b = hit
        detail = (
            f"A={fr.format_subset(a)}, B={fr.format_subset(b)}: "
            f"i(A∪B)={sp.format_subset(t[a | b])} vs "
            f"i(A)∪i(B)={sp.format_subset(t[a] | t[b])}"
        )
        verdicts.append(failed("i3", Witness(subset_a=a, subset_b=b, detail=detail)))

    unary_hit = None
    omega = sp.full
    for a in range(size):
        if omega ^ t[a] != t[full ^ a]:
            unary_hit = a
            break
    if unary_hit is None:
        verdicts.append(passed("i4"))
    else:
        a = unary_hit
        detail = (
            f"A={fr.format_subset(a)}: ¬i(A)={sp.format_subset(omega ^ t[a])} vs "
            f"i(¬A)={sp.format_subset(t[full ^ a])}"
        )
        verdicts.append(failed("i4", Witness(subset_a=a, detail=detail)))

    hit = smallest_witness(inter_hom_failure(t), first_inter_hom_violation, t)
    if hit is None:
        verdicts.append(passed("i3'"))
    else:
        a, b = hit
        detail = (
            f"A={fr.format_subset(a)}, B={fr.format_subset(b)}: "
            f"i(A∩B)={sp.format_subset(t[a & b])} vs "
            f"i(A)∩i(B)={sp.format_subset(t[a] & t[b])}"
        )
        verdicts.append(failed("i3'", Witness(subset_a=a, subset_b=b, detail=detail)))
    return AxiomReport(tuple(verdicts))


def select_incidence(j: BasicAssignment, sel: Selector) -> IncidenceMap:
    """Pick one atom per focal cell of ``j`` and take the induced preimage map.

    The result sits between the lower and upper maps of the structure built
    from ``j``: each situation's atom lies in its focal element.
    """
    cells = j.map.table
    space = j.space
    if cells[0] or sum(c.bit_count() for c in cells) != space.n or _union(cells) != space.full:
        raise AssignmentAxiomViolation("cells do not partition the situation space")
    targets = [0] * space.n
    for mask in range(1, len(cells)):
        cell = cells[mask]
        if not cell:
            continue
        atom = sel.choose(mask)
        if not mask >> atom & 1:
            raise SelectorDomainError(f"selector chose atom {atom} outside its focal element")
        while cell:
            low = cell & -cell
            targets[low.bit_length() - 1] = atom
            cell ^= low
    return incidence_from_pointmap(PointMap(tuple(targets)), j.frame, space)


def _union(cells) -> int:
    acc = 0
    for c in cells:
        acc |= c
    return acc


def check_sandwich(s: IntervalStructure, i: IncidenceMap) -> AxiomReport:
    """lower ⊆ incidence and incidence ⊆ upper, each with its first witness."""
    if s.frame != i.frame:
        raise FrameMismatch("structure and incidence map use different frames")
    if s.space != i.space:
        raise SpaceMismatch("structure and incidence map use different spaces")
    lt, it, ut = s.lower.table, i.map.table, s.upper.table
    sp = s.space
    verdicts = []
    hit = None
    for a in range(len(lt)):
        if lt[a] & ~it[a]:
            hit = a
            break
    if hit is None:
        verdicts.append(passed("sandwich-lower"))
    else:
        detail = (
            f"A={s.frame.format_subset(hit)}: lower {sp.format_subset(lt[hit])} "
            f"⊄ incidence {sp.format_subset(it[hit])}"
        )
        verdicts.append(failed("sandwich-lower", Witness(subset_a=hit, detail=detail)))
    hit = None
    for a in range(len(lt)):
        if it[a] & ~ut[a]:
            hit = a
            break
    if hit is None:
        verdicts.append(passed("sandwich-upper"))
    else:
        detail = (
            f"A={s.frame.format_subset(hit)}: incidence {sp.format_subset(it[hit])} "
            f"⊄ upper {sp.format_subset(ut[hit])}"
        )
        verdicts.append(failed("sandwich-upper", Witness(subset_a=hit, detail=detail)))
    return AxiomReport(tuple(verdicts))


def check_compatibility(i: IncidenceMap, a: AmbiguityMap) -> AxiomReport:
    """a(A) ∪ a(B) ⊆ i(A∪B) ∪ a(A∪B) for every pair of subsets."""
    if i.frame != a.frame:
        raise FrameMismatch("incidence and ambiguity maps use different frames")
    if i.space != a.space:
        raise SpaceMismatch("incidence and ambiguity maps use different spaces")
    at, it = a.map.table, i.map.table
    hit = smallest_witness(compat_failure(at, it), first_compat_violation, at, it)
    if hit is None:
        return AxiomReport((passed("compatibility"),))
    x, y = hit
    fr = i.frame
    sp = i.space
    u = x | y
    detail = (
        f"A={fr.format_subset(x)}, B={fr.format_subset(y)}: "
        f"a(A)∪a(B)={sp.format_subset(at[x] | at[y])} ⊄ "
        f"i(A∪B)∪a(A∪B)={sp.format_subset(it[u] | at[u])}"
    )
    return AxiomReport((failed("compatibility", Witness(subset_a=x, subset_b=y, detail=detail)),))


def decompose_interval(
    s: IntervalStructure, sel: Selector | None = None
) -> tuple[IncidenceMap, AmbiguityMap]:
    """Split a validated structure into a compatible (incidence, ambiguity)
    pair with upper = i ∪ a and lower = i ∩ ¬a on every subset.

    The identities are checked on every subset.  They imply compatibility:
    a(A) ∪ a(B) lies in upper(A) ∪ upper(B), which the monotone upper map
    keeps inside upper(A∪B) = i(A∪B) ∪ a(A∪B).
    """
    sel = sel or Selector.min_index()
    amb = ambiguity_from_interval(s)
    inc = select_incidence(s.assignment, sel)
    it, at = inc.map.table, amb.map.table
    omega = s.space.full
    for a in range(len(it)):
        if s.upper.table[a] != it[a] | at[a] or s.lower.table[a] != it[a] & (omega ^ at[a]):
            raise InternalInvariantFailure(
                f"decomposition identities fail at {s.frame.format_subset(a)}"
            )
    return inc, amb


def compose_interval(i: IncidenceMap, a: AmbiguityMap) -> IntervalStructure:
    """Assemble the structure upper = i ∪ a, lower = i ∩ ¬a.

    The ambiguity axioms and the compatibility condition are validated
    eagerly; for an incidence map, they make the result a valid structure, so
    it is not checked again.  Composing then decomposing gives back the same
    structure, and the gap of the result is exactly ``a``, since
    (i ∪ a) − (i ∩ ¬a) = a.
    """
    if i.frame != a.frame:
        raise FrameMismatch("incidence and ambiguity maps use different frames")
    if i.space != a.space:
        raise SpaceMismatch("incidence and ambiguity maps use different spaces")
    amb_report = check_ambiguity_axioms(a.map)
    if not amb_report.ok:
        first = next(v for v in amb_report.verdicts if not v.ok)
        raise AmbiguityAxiomViolation(
            f"{first.axiom} fails: {first.witness.detail}", report=amb_report
        )
    compat = check_compatibility(i, a)
    if not compat.ok:
        w = compat.verdicts[0].witness
        raise IncompatiblePair(
            "compatibility fails at "
            f"A={i.frame.format_subset(w.subset_a)}, B={i.frame.format_subset(w.subset_b)}",
            report=compat,
        )
    omega = i.space.full
    it, at = i.map.table, a.map.table
    upper = SetValuedMap(i.frame, i.space, tuple(x | y for x, y in zip(it, at)))
    lower = SetValuedMap(i.frame, i.space, tuple(x & (omega ^ y) for x, y in zip(it, at)))
    return IntervalStructure(lower, upper)
