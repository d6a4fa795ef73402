"""Independent brute-force re-checker for every axiom family.

This module is the second opinion: it re-derives every verdict from the
defining formulas using frozensets of element indices, full enumeration, and
its own complement/union code.  Do not import set-algebra helpers from the
optimized modules here; only the typed containers and the report classes are
shared, so the two code paths stay comparable but never share a computation.

Scan conventions match the optimized checkers on purpose: subsets ascend in
mask order and the first violating pair is reported.  The pair loops walk
every unordered pair once, A <= B; the pair axioms are symmetric, so that
first pair is the lexicographically smallest violating ordered pair.
"""

from __future__ import annotations

from functools import cache

from .ambiguity import AmbiguityMap
from .incidence import IncidenceMap
from .interval import BasicAssignment, IntervalStructure, SetValuedMap
from .reports import AxiomReport, Verdict, Witness, failed, passed


def _members(mask: int, width: int) -> frozenset[int]:
    return frozenset(k for k in range(width) if mask >> k & 1)


@cache
def _subsets(width: int) -> tuple[frozenset[int], ...]:
    """Every subset of a ``width``-atom frame as a frozenset, in mask order."""
    return tuple(_members(mask, width) for mask in range(1 << width))


def _mask(members: frozenset[int]) -> int:
    total = 0
    for k in members:
        total += 1 << k
    return total


def _sets(m: SetValuedMap) -> list[frozenset[int]]:
    width = m.space.size
    members = {entry: _members(entry, width) for entry in set(m.table)}
    return [members[entry] for entry in m.table]


def _describe(universe_names, members: frozenset[int]) -> str:
    if not members:
        return "∅"
    return "{" + ",".join(universe_names[k] for k in sorted(members)) + "}"


def _pair_fail(axiom: str, frame, a: int, b: int, text: str) -> Verdict:
    detail = f"A={_describe(frame.names, _members(a, frame.size))}, " \
             f"B={_describe(frame.names, _members(b, frame.size))}: {text}"
    return failed(axiom, Witness(subset_a=a, subset_b=b, detail=detail))


def _unary_fail(axiom: str, frame, a: int, text: str) -> Verdict:
    detail = f"A={_describe(frame.names, _members(a, frame.size))}: {text}"
    return failed(axiom, Witness(subset_a=a, detail=detail))


def _check_union_dist(axiom: str, frame, sets) -> Verdict:
    size = len(sets)
    for a in range(size):
        for b in range(a, size):
            if sets[a | b] != sets[a] | sets[b]:
                return _pair_fail(axiom, frame, a, b, "union image differs from image union")
    return passed(axiom)


def _check_inter_dist(axiom: str, frame, sets) -> Verdict:
    size = len(sets)
    for a in range(size):
        for b in range(a, size):
            if sets[a & b] != sets[a] & sets[b]:
                return _pair_fail(
                    axiom, frame, a, b, "intersection image differs from image intersection"
                )
    return passed(axiom)


def _check_inter_bound(axiom: str, frame, sets) -> Verdict:
    size = len(sets)
    for a in range(size):
        for b in range(a, size):
            if not sets[a & b] <= sets[a] & sets[b]:
                return _pair_fail(axiom, frame, a, b, "intersection image exceeds the bound")
    return passed(axiom)


def _check_union_bound(axiom: str, frame, sets) -> Verdict:
    size = len(sets)
    for a in range(size):
        for b in range(a, size):
            if not sets[a] | sets[b] <= sets[a | b]:
                return _pair_fail(axiom, frame, a, b, "image union exceeds the union image")
    return passed(axiom)


def _check_empty(axiom: str, frame, sets, label: str) -> Verdict:
    if sets[0]:
        return _unary_fail(axiom, frame, 0, f"{label} of ∅ is nonempty")
    return passed(axiom)


def _check_full(axiom: str, frame, sets, omega: frozenset, label: str) -> Verdict:
    full = len(sets) - 1
    if sets[full] != omega:
        return _unary_fail(axiom, frame, full, f"{label} of Θ is not the whole space")
    return passed(axiom)


def _structure_verdicts(s: IntervalStructure) -> list[Verdict]:
    frame = s.lower.frame
    omega = frozenset(range(s.lower.space.size))
    lower = _sets(s.lower)
    upper = _sets(s.upper)
    size = len(lower)
    verdicts = [
        _check_empty("f̄1", frame, upper, "upper image"),
        _check_full("f̄2", frame, upper, omega, "upper image"),
        _check_union_dist("f̄3", frame, upper),
        _check_inter_bound("f̄4", frame, upper),
    ]
    duality = passed("duality")
    full = size - 1
    for a in range(size):
        if lower[a] != omega - upper[full ^ a]:
            duality = _unary_fail(
                "duality", frame, a, "lower image is not the complement of the upper ¬A image"
            )
            break
    verdicts.append(duality)
    verdicts.extend(
        [
            _check_empty("f1", frame, lower, "lower image"),
            _check_full("f2", frame, lower, omega, "lower image"),
            _check_inter_dist("f3", frame, lower),
            _check_union_bound("f4", frame, lower),
        ]
    )
    sandwich = passed("sandwich")
    for a in range(size):
        if not lower[a] <= upper[a]:
            sandwich = _unary_fail("sandwich", frame, a, "lower image exceeds upper image")
            break
    verdicts.append(sandwich)
    return verdicts


def _assignment_verdicts(j: BasicAssignment) -> list[Verdict]:
    frame = j.map.frame
    space = j.map.space
    omega = frozenset(range(space.size))
    cells = _sets(j.map)
    size = len(cells)
    verdicts = [_check_empty("j1", frame, cells, "cell")]
    covered = frozenset()
    for cell in cells:
        covered = covered | cell
    if covered == omega:
        verdicts.append(passed("j2"))
    else:
        w = min(omega - covered)
        verdicts.append(
            failed(
                "j2",
                Witness(situation=w, detail=f"situation {space.names[w]} lies in no cell"),
            )
        )
    overlap = passed("j3")
    for a in range(size):
        done = False
        for b in range(a + 1, size):
            if cells[a] & cells[b]:
                overlap = _pair_fail("j3", frame, a, b, "cells overlap")
                done = True
                break
        if done:
            break
    verdicts.append(overlap)
    return verdicts


def _ambiguity_verdicts(amb: AmbiguityMap) -> list[Verdict]:
    frame = amb.map.frame
    sets = _sets(amb.map)
    size = len(sets)
    full = size - 1
    verdicts = [_check_empty("a1", frame, sets, "image")]
    symmetry = passed("a2")
    for a in range(size):
        if sets[a] != sets[full ^ a]:
            symmetry = _unary_fail("a2", frame, a, "image differs from the ¬A image")
            break
    verdicts.append(symmetry)
    mixed_union = passed("a3.1")
    for a in range(size):
        done = False
        for b in range(a, size):
            if not sets[a & b] | sets[a | b] <= sets[a] | sets[b]:
                mixed_union = _pair_fail("a3.1", frame, a, b, "mixed union bound fails")
                done = True
                break
        if done:
            break
    verdicts.append(mixed_union)
    mixed_inter = passed("a3.2")
    for a in range(size):
        done = False
        for b in range(a, size):
            if not sets[a & b] & sets[a | b] <= sets[a] & sets[b]:
                mixed_inter = _pair_fail("a3.2", frame, a, b, "mixed intersection bound fails")
                done = True
                break
        if done:
            break
    verdicts.append(mixed_inter)
    if sets[full]:
        verdicts.append(_unary_fail("a4", frame, full, "image of Θ is nonempty"))
    else:
        verdicts.append(passed("a4"))
    return verdicts


def _incidence_verdicts(inc: IncidenceMap) -> list[Verdict]:
    frame = inc.map.frame
    omega = frozenset(range(inc.map.space.size))
    sets = _sets(inc.map)
    size = len(sets)
    full = size - 1
    verdicts = [
        _check_empty("i1", frame, sets, "image"),
        _check_full("i2", frame, sets, omega, "image"),
        _check_union_dist("i3", frame, sets),
    ]
    exchange = passed("i4")
    for a in range(size):
        if omega - sets[a] != sets[full ^ a]:
            exchange = _unary_fail("i4", frame, a, "complement of image differs from ¬A image")
            break
    verdicts.append(exchange)
    verdicts.append(_check_inter_dist("i3'", frame, sets))
    return verdicts


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
    cells = _sets(j.map)
    subsets = _subsets(j.map.frame.size)
    out = []
    for a_set in subsets:
        acc = frozenset()
        for b, b_set in enumerate(subsets):
            if b_set <= a_set:
                acc = acc | cells[b]
        out.append(_mask(acc))
    return tuple(out)


def oracle_upper_table(j: BasicAssignment) -> tuple[int, ...]:
    """upper(A) as the union of cells meeting A, by full enumeration."""
    cells = _sets(j.map)
    subsets = _subsets(j.map.frame.size)
    out = []
    for a_set in subsets:
        acc = frozenset()
        for b, b_set in enumerate(subsets):
            if not b_set.isdisjoint(a_set):
                acc = acc | cells[b]
        out.append(_mask(acc))
    return tuple(out)


def oracle_extract_table(s: IntervalStructure) -> tuple[int, ...]:
    """Cells as lower(A) minus every strict-subset lower image, enumerated."""
    lower = _sets(s.lower)
    subsets = _subsets(s.lower.frame.size)
    out = []
    for a, a_set in enumerate(subsets):
        acc = frozenset()
        for b, b_set in enumerate(subsets):
            if b_set < a_set:
                acc = acc | lower[b]
        out.append(_mask(lower[a] - acc))
    return tuple(out)


def oracle_ambiguity_table(s: IntervalStructure) -> tuple[int, ...]:
    """Gap upper(A) minus lower(A), set difference on frozensets."""
    lower = _sets(s.lower)
    upper = _sets(s.upper)
    return tuple(_mask(u - lo) for lo, u in zip(lower, upper))
