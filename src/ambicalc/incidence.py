"""Incidence mappings: the zero-ambiguity maps induced by point functions.

An incidence map distributes over unions and complements, which forces it to
be the preimage map of a total function g from situations to atoms.  Choosing
one atom inside each focal element of a basic assignment induces such a map
sitting between the lower and upper maps of the assignment's structure; that
is the constructive half of the decomposition upper = i ∪ a, lower = i ∩ ¬a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Mapping

from .ambiguity import AmbiguityMap, ambiguity_from_interval, check_ambiguity_axioms
from .errors import (
    AmbiguityAxiomViolation,
    AssignmentAxiomViolation,
    IncidenceAxiomViolation,
    IncompatiblePair,
    SelectorDomainError,
)
from .frames import Frame, SituationSpace
from .interval import (
    BasicAssignment,
    IntervalStructure,
    MapBacked,
    SetValuedMap,
    _require_same_universes,
    axiom_report,
    containment_at,
    image_at,
    pair_at,
    require,
    witness_at,
)
from .reports import AxiomReport
from .sweeps import (
    compat_failure,
    derive_seed,
    first_inter_hom_violation,
    first_union_hom_violation,
    inter_hom_failure,
    joins,
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
class IncidenceMap(MapBacked):
    origin: PointMap


@dataclass(frozen=True)
class Selector:
    """Rule choosing one atom inside each focal element.

    ``min-index`` takes the lowest-indexed atom; ``seeded`` takes atom
    number ``derive_seed("selector", seed, mask) % |mask|`` of the focal
    element, counting its atoms from the lowest; ``explicit`` looks the
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

    @cached_property
    def _lookup(self) -> dict[int, int]:
        """The ``explicit`` table as a dict, built on first use."""
        return dict(self.table or ())

    def choose(self, focal_mask: int) -> int:
        return self._choose(focal_mask, None)

    def _choose(self, focal_mask: int, frame: Frame | None) -> int:
        """``choose``; an ``explicit`` table's failure names the focal
        element and the atom by their names in ``frame``, when given."""
        if focal_mask <= 0:
            raise SelectorDomainError("focal element must be a nonempty subset")
        if self.kind == "min-index":
            return (focal_mask & -focal_mask).bit_length() - 1
        if self.kind == "seeded":
            pick = derive_seed("selector", self.seed, focal_mask) % focal_mask.bit_count()
            mask = focal_mask
            for _ in range(pick):
                mask &= mask - 1
            return (mask & -mask).bit_length() - 1
        atom = self._lookup.get(focal_mask)
        if atom is not None and focal_mask >> atom & 1:
            return atom
        if frame is None:
            focal = f"focal mask {focal_mask}"
        else:
            focal = f"focal element {frame.format_subset(focal_mask)}"
        if atom is None:
            raise SelectorDomainError(f"no table entry for {focal}")
        name = atom if frame is None else frame.atoms[atom]
        raise SelectorDomainError(f"table entry {name} lies outside {focal}")


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
    return IncidenceMap(SetValuedMap(frame, space, joins(atom_cells)), g)


def incidence_from_map(m: SetValuedMap) -> IncidenceMap:
    """Admit a raw set-valued map as an incidence map.

    The axioms are checked in full.  They make the singleton images a
    partition of the space, so the point map is read off them.
    """
    require(check_incidence_axioms(m), IncidenceAxiomViolation)
    targets = [0] * m.space.n
    for atom in range(m.frame.m):
        cell = m.table[1 << atom]
        for w in range(m.space.n):
            if cell >> w & 1:
                targets[w] = atom
    return IncidenceMap(m, PointMap(tuple(targets)))


def check_incidence_axioms(m: SetValuedMap) -> AxiomReport:
    """Axioms i1 (empty at ∅), i2 (full at Θ), i3 (union distribution),
    i4 (complement exchange), plus the derived i3' (intersection
    distribution)."""
    t, omega, name = m.table, m.space.full, m.space.format_subset
    full = m.frame.full
    unexchanged = next((a for a in range(len(t)) if omega ^ t[a] != t[full ^ a]), None)
    return axiom_report(
        ("i1", image_at(m, 0, 0, "image of ∅")),
        ("i2", image_at(m, full, omega, "image of Θ")),
        ("i3", pair_at(m, union_hom_failure, first_union_hom_violation, lambda a, b: (
            f"i(A∪B)={name(t[a | b])} vs i(A)∪i(B)={name(t[a] | t[b])}"
        ))),
        ("i4", witness_at(m.frame, unexchanged, lambda a: (
            f"¬i(A)={name(omega ^ t[a])} vs i(¬A)={name(t[full ^ a])}"
        ))),
        ("i3'", pair_at(m, inter_hom_failure, first_inter_hom_violation, lambda a, b: (
            f"i(A∩B)={name(t[a & b])} vs i(A)∩i(B)={name(t[a] & t[b])}"
        ))),
    )


def select_incidence(j: BasicAssignment, sel: Selector) -> IncidenceMap:
    """Pick one atom per focal cell of ``j`` and take the induced preimage map.

    The result sits between the lower and upper maps of the structure built
    from ``j``: each situation's atom lies in its focal element.
    """
    cells = j.map.table
    space = j.space
    if cells[0] or sum(map(int.bit_count, cells)) != space.n or reduce(or_, cells) != space.full:
        raise AssignmentAxiomViolation("cells do not partition the situation space")
    targets = [0] * space.n
    for mask in range(1, len(cells)):
        cell = cells[mask]
        if not cell:
            continue
        atom = sel._choose(mask, j.frame)
        while cell:
            low = cell & -cell
            targets[low.bit_length() - 1] = atom
            cell ^= low
    return incidence_from_pointmap(PointMap(tuple(targets)), j.frame, space)


def check_sandwich(s: IntervalStructure, i: IncidenceMap) -> AxiomReport:
    """lower ⊆ incidence and incidence ⊆ upper, each with its first witness."""
    _require_same_universes(s, i, "structure and incidence map")
    return axiom_report(
        ("sandwich-lower", containment_at(s.lower, i.map, "lower", "incidence")),
        ("sandwich-upper", containment_at(i.map, s.upper, "incidence", "upper")),
    )


def check_compatibility(i: IncidenceMap, a: AmbiguityMap) -> AxiomReport:
    """a(A) ∪ a(B) ⊆ i(A∪B) ∪ a(A∪B) for every pair of subsets."""
    _require_same_universes(i, a, "incidence and ambiguity maps")
    at, it = a.map.table, i.map.table
    name = i.space.format_subset
    return axiom_report(("compatibility", witness_at(i.frame, compat_failure(at, it), lambda x, y: (
        f"a(A)∪a(B)={name(at[x] | at[y])} ⊄ i(A∪B)∪a(A∪B)={name(it[x | y] | at[x | y])}"
    ))))


def decompose_interval(
    s: IntervalStructure, sel: Selector | None = None
) -> tuple[IncidenceMap, AmbiguityMap]:
    """Split a validated structure into a compatible (incidence, ambiguity)
    pair with upper = i ∪ a and lower = i ∩ ¬a on every subset.

    The identities are theorems, not checked here: the incidence map picks
    one atom inside each focal element, so lower ⊆ i ⊆ upper, and a is
    upper − lower.  They imply compatibility: a(A) ∪ a(B) lies in
    upper(A) ∪ upper(B), which the monotone upper map keeps inside
    upper(A∪B) = i(A∪B) ∪ a(A∪B).
    """
    sel = sel or Selector.min_index()
    amb = ambiguity_from_interval(s)
    return select_incidence(s.assignment, sel), amb


def compose_interval(i: IncidenceMap, a: AmbiguityMap) -> IntervalStructure:
    """Assemble the structure upper = i ∪ a, lower = i ∩ ¬a.

    The ambiguity axioms and the compatibility condition are validated
    eagerly; for an incidence map, they make the result a valid structure, so
    it is not checked again.  Composing then decomposing gives back the same
    structure, and the gap of the result is exactly ``a``, since
    (i ∪ a) − (i ∩ ¬a) = a.
    """
    _require_same_universes(i, a, "incidence and ambiguity maps")
    require(check_ambiguity_axioms(a.map), AmbiguityAxiomViolation)
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
