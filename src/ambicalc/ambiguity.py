"""Qualitative ambiguity: the situations where a proposition is undetermined.

An ambiguity measure vanishes on ∅, is invariant under complement, and its
images at A∩B and A∪B are bounded by the images at A and B, union-wise and
intersection-wise.  The gap upper(A) − lower(A) of any interval structure is
one such measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import and_, or_

from .frames import Frame, SituationSpace
from .interval import (
    IntervalStructure,
    SetValuedMap,
    axiom_report,
    image_at,
    pair_at,
    witness_at,
)
from .reports import AxiomReport
from .sweeps import (
    first_mixed_inter_violation,
    first_mixed_union_violation,
    mixed_inter_failure,
    mixed_union_failure,
    split_form_misses,
)


@dataclass(frozen=True)
class AmbiguityMap:
    map: SetValuedMap

    @property
    def frame(self) -> Frame:
        return self.map.frame

    @property
    def space(self) -> SituationSpace:
        return self.map.space


def check_ambiguity_axioms(m: SetValuedMap) -> AxiomReport:
    """Axioms a1 (empty at ∅), a2 (complement symmetry), a3.1/a3.2 (the two
    mixed bounds), plus the derived a4 (empty at Θ).

    The split form passes a1–a3.2 jointly; only when it fails do the mixed
    bounds get their own exact tests.
    """
    t, fr, name = m.table, m.frame, m.space.format_subset
    full = fr.full
    misses = split_form_misses(t)

    def mixed(test, scan, op, sign):
        if not misses:  # the split form holds, and the mixed bounds with it
            return None
        return pair_at(m, partial(test, misses=misses), scan, lambda a, b: (
            f"a(A∩B){sign}a(A∪B)={name(op(t[a & b], t[a | b]))} "
            f"⊄ a(A){sign}a(B)={name(op(t[a], t[b]))}"
        ))

    asymmetric = next((a for a in range(len(t)) if t[a] != t[full ^ a]), None)
    return axiom_report(
        ("a1", image_at(m, 0, 0, "image of ∅")),
        ("a2", witness_at(fr, asymmetric, lambda a: (
            f"image {name(t[a])} differs from image of ¬A {name(t[full ^ a])}"
        ))),
        ("a3.1", mixed(mixed_union_failure, first_mixed_union_violation, or_, "∪")),
        ("a3.2", mixed(mixed_inter_failure, first_mixed_inter_violation, and_, "∩")),
        ("a4", image_at(m, full, 0, "image of Θ")),
    )


def ambiguity_from_interval(s: IntervalStructure) -> AmbiguityMap:
    """Gap map upper(A) ∩ ¬lower(A) of a validated structure; it is an
    ambiguity measure by construction, so it is not checked again."""
    table = tuple(u & ~lo for lo, u in zip(s.lower.table, s.upper.table))
    return AmbiguityMap(SetValuedMap(s.frame, s.space, table))
