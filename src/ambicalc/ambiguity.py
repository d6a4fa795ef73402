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
from .interval import IntervalStructure, SetValuedMap
from .reports import AxiomReport, Witness, failed, passed
from .sweeps import (
    first_mixed_inter_violation,
    first_mixed_union_violation,
    mixed_inter_failure,
    mixed_union_failure,
    smallest_witness,
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
    t = m.table
    size = len(t)
    fr = m.frame
    sp = m.space
    full = fr.full
    verdicts = []

    if t[0] == 0:
        verdicts.append(passed("a1"))
    else:
        verdicts.append(
            failed("a1", Witness(subset_a=0, detail=f"image of ∅ is {sp.format_subset(t[0])}"))
        )

    hit = None
    for a in range(size):
        if t[a] != t[full ^ a]:
            hit = a
            break
    if hit is None:
        verdicts.append(passed("a2"))
    else:
        detail = (
            f"A={fr.format_subset(hit)}: image {sp.format_subset(t[hit])} differs from "
            f"image of ¬A {sp.format_subset(t[full ^ hit])}"
        )
        verdicts.append(failed("a2", Witness(subset_a=hit, detail=detail)))

    misses = split_form_misses(t)
    union_test = partial(mixed_union_failure, misses=misses)
    for axiom, test, scan, op, sign in (
        ("a3.1", union_test, first_mixed_union_violation, or_, "∪"),
        ("a3.2", mixed_inter_failure, first_mixed_inter_violation, and_, "∩"),
    ):
        pair_hit = smallest_witness(test(t), scan, t) if misses else None
        if pair_hit is None:
            verdicts.append(passed(axiom))
            continue
        a, b = pair_hit
        detail = (
            f"A={fr.format_subset(a)}, B={fr.format_subset(b)}: "
            f"a(A∩B){sign}a(A∪B)={sp.format_subset(op(t[a & b], t[a | b]))} "
            f"⊄ a(A){sign}a(B)={sp.format_subset(op(t[a], t[b]))}"
        )
        verdicts.append(failed(axiom, Witness(subset_a=a, subset_b=b, detail=detail)))

    if t[full] == 0:
        verdicts.append(passed("a4"))
    else:
        verdicts.append(
            failed(
                "a4",
                Witness(subset_a=full, detail=f"image of Θ is {sp.format_subset(t[full])}"),
            )
        )
    return AxiomReport(tuple(verdicts))


def ambiguity_from_interval(s: IntervalStructure) -> AmbiguityMap:
    """Gap map upper(A) ∩ ¬lower(A) of a validated structure; it is an
    ambiguity measure by construction, so it is not checked again."""
    table = tuple(u & ~lo for lo, u in zip(s.lower.table, s.upper.table))
    return AmbiguityMap(SetValuedMap(s.frame, s.space, table))
