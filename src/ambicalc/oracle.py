"""Independent brute-force re-checker for every axiom family.

This module is the second opinion: it re-derives every verdict from the
defining formulas by full enumeration over the raw situation masks of the
tables, with its own subset, complement and union code: B ⊆ A is
``b & ~a == 0`` and the complement of X in the space is ``omega ^ X``.  Its
independence is the formulas and the enumeration, which the optimized
checkers' local tests and subset transforms do not share.  Do not import
set-algebra helpers from the optimized modules here; only the typed
containers and the report classes are shared, so the two code paths stay
comparable but never share a computation.

Each axiom is one row: its name, a lazy ``next(..., None)`` search for the
first subset A, or pair A <= B, where the formula fails, and its witness
text.  The searches are generators, so no list of subsets or pairs is ever
built.  Their scan order matches the optimized checkers on purpose: A
ascends in mask order, and B ascends from A (from A+1 for j3, whose pairs
are distinct).  The pair axioms are symmetric, so the first hit is the
lexicographically smallest violating ordered pair.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .ambiguity import AmbiguityMap
from .incidence import IncidenceMap
from .interval import BasicAssignment, IntervalStructure, SetValuedMap
from .reports import AxiomReport, Verdict, Witness


def _describe(frame, mask: int) -> str:
    if not mask:
        return "∅"
    return "{" + ",".join(name for k, name in enumerate(frame.names) if mask >> k & 1) + "}"


def _verdict(axiom: str, frame, hit, text: str) -> Verdict:
    """Pass when the search found nothing; otherwise name the witness subset
    A, or pair (A, B), before ``text``."""
    if hit is None:
        return Verdict(axiom, True)
    a, b = hit if isinstance(hit, tuple) else (hit, None)
    named = f"A={_describe(frame, a)}"
    if b is not None:
        named += f", B={_describe(frame, b)}"
    return Verdict(axiom, False, Witness(subset_a=a, subset_b=b, detail=f"{named}: {text}"))


def _omega(m: SetValuedMap) -> int:
    """Mask of the whole situation space of ``m``."""
    return (1 << m.space.size) - 1


def _structure_verdicts(s: IntervalStructure) -> list[Verdict]:
    frame = s.lower.frame
    omega = _omega(s.lower)
    lo = s.lower.table
    up = s.upper.table
    size = len(lo)
    full = size - 1
    rows = [
        ("f̄1", 0 if up[0] else None, "upper image of ∅ is nonempty"),
        ("f̄2", None if up[full] == omega else full, "upper image of Θ is not the whole space"),
        ("f̄3", next(((a, b) for a in range(size) for b in range(a, size)
                     if up[a | b] != up[a] | up[b]), None),
         "union image differs from image union"),
        ("f̄4", next(((a, b) for a in range(size) for b in range(a, size)
                     if up[a & b] & ~(up[a] & up[b])), None),
         "intersection image exceeds the bound"),
        ("duality", next((a for a in range(size) if lo[a] != omega ^ up[full ^ a]), None),
         "lower image is not the complement of the upper ¬A image"),
        ("f1", 0 if lo[0] else None, "lower image of ∅ is nonempty"),
        ("f2", None if lo[full] == omega else full, "lower image of Θ is not the whole space"),
        ("f3", next(((a, b) for a in range(size) for b in range(a, size)
                    if lo[a & b] != lo[a] & lo[b]), None),
         "intersection image differs from image intersection"),
        ("f4", next(((a, b) for a in range(size) for b in range(a, size)
                    if (lo[a] | lo[b]) & ~lo[a | b]), None),
         "image union exceeds the union image"),
        ("sandwich", next((a for a in range(size) if lo[a] & ~up[a]), None),
         "lower image exceeds upper image"),
    ]
    return [_verdict(axiom, frame, hit, text) for axiom, hit, text in rows]


def _assignment_verdicts(j: BasicAssignment) -> list[Verdict]:
    frame = j.map.frame
    space = j.map.space
    cells = j.map.table
    size = len(cells)
    uncovered = _omega(j.map) ^ reduce(or_, cells)
    coverage = Verdict("j2", True)
    if uncovered:
        w = (uncovered & -uncovered).bit_length() - 1
        coverage = Verdict(
            "j2", False, Witness(situation=w, detail=f"situation {space.names[w]} lies in no cell")
        )
    return [
        _verdict("j1", frame, 0 if cells[0] else None, "cell of ∅ is nonempty"),
        coverage,
        _verdict("j3", frame, next(((a, b) for a in range(size) for b in range(a + 1, size)
                                    if cells[a] & cells[b]), None), "cells overlap"),
    ]


def _ambiguity_verdicts(amb: AmbiguityMap) -> list[Verdict]:
    frame = amb.map.frame
    t = amb.map.table
    size = len(t)
    full = size - 1
    rows = [
        ("a1", 0 if t[0] else None, "image of ∅ is nonempty"),
        ("a2", next((a for a in range(size) if t[a] != t[full ^ a]), None),
         "image differs from the ¬A image"),
        ("a3.1", next(((a, b) for a in range(size) for b in range(a, size)
                       if (t[a & b] | t[a | b]) & ~(t[a] | t[b])), None),
         "mixed union bound fails"),
        ("a3.2", next(((a, b) for a in range(size) for b in range(a, size)
                       if t[a & b] & t[a | b] & ~(t[a] & t[b])), None),
         "mixed intersection bound fails"),
        ("a4", full if t[full] else None, "image of Θ is nonempty"),
    ]
    return [_verdict(axiom, frame, hit, text) for axiom, hit, text in rows]


def _incidence_verdicts(inc: IncidenceMap) -> list[Verdict]:
    frame = inc.map.frame
    omega = _omega(inc.map)
    t = inc.map.table
    size = len(t)
    full = size - 1
    rows = [
        ("i1", 0 if t[0] else None, "image of ∅ is nonempty"),
        ("i2", None if t[full] == omega else full, "image of Θ is not the whole space"),
        ("i3", next(((a, b) for a in range(size) for b in range(a, size)
                     if t[a | b] != t[a] | t[b]), None),
         "union image differs from image union"),
        ("i4", next((a for a in range(size) if omega ^ t[a] != t[full ^ a]), None),
         "complement of image differs from ¬A image"),
        ("i3'", next(((a, b) for a in range(size) for b in range(a, size)
                      if t[a & b] != t[a] & t[b]), None),
         "intersection image differs from image intersection"),
    ]
    return [_verdict(axiom, frame, hit, text) for axiom, hit, text in rows]


def oracle_verify(obj) -> AxiomReport:
    """Re-run every relevant axiom for an object via the naive formulas."""
    if isinstance(obj, BasicAssignment):
        return AxiomReport(tuple(_assignment_verdicts(obj)))
    if isinstance(obj, IntervalStructure):
        return AxiomReport(tuple(_structure_verdicts(obj)))
    if isinstance(obj, AmbiguityMap):
        return AxiomReport(tuple(_ambiguity_verdicts(obj)))
    if isinstance(obj, IncidenceMap):
        return AxiomReport(tuple(_incidence_verdicts(obj)))
    raise TypeError(f"no oracle for {type(obj).__name__}")


def oracle_lower_table(j: BasicAssignment) -> tuple[int, ...]:
    """lower(A) as the union of cells over all subsets, by full enumeration."""
    cells = j.map.table
    return tuple(reduce(or_, (c for b, c in enumerate(cells) if b & ~a == 0), 0)
                 for a in range(len(cells)))


def oracle_upper_table(j: BasicAssignment) -> tuple[int, ...]:
    """upper(A) as the union of cells meeting A, by full enumeration."""
    cells = j.map.table
    return tuple(reduce(or_, (c for b, c in enumerate(cells) if b & a), 0)
                 for a in range(len(cells)))


def oracle_extract_table(s: IntervalStructure) -> tuple[int, ...]:
    """Cells as lower(A) minus every strict-subset lower image, enumerated."""
    lower = s.lower.table
    return tuple(lo & ~reduce(or_, (c for b, c in enumerate(lower) if b != a and b & ~a == 0), 0)
                 for a, lo in enumerate(lower))


def oracle_ambiguity_table(s: IntervalStructure) -> tuple[int, ...]:
    """Gap upper(A) minus lower(A), set difference on the masks."""
    return tuple(u & ~lo for lo, u in zip(s.lower.table, s.upper.table))
