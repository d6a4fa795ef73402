"""The oracle's pair loops walk each unordered pair once; a full ordered grid
must give the same verdicts and witness texts."""

import random

import pytest

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    Frame,
    GenConfig,
    IncidenceMap,
    IntervalStructure,
    PointMap,
    ProbabilityAssignment,
    SetValuedMap,
    SituationSpace,
    ambiguity_from_interval,
    gen_assignment,
    select_incidence,
    Selector,
    structure_from_assignment,
)
from ambicalc.oracle import oracle_verify

# axiom -> (holds on the pair (a, b) of table t, witness text), by kind
UNION_DIST = (lambda t, a, b: t[a | b] == t[a] | t[b], "union image differs from image union")
INTER_DIST = (
    lambda t, a, b: t[a & b] == t[a] & t[b],
    "intersection image differs from image intersection",
)
PAIR_AXIOMS = {
    "upper": {
        "f̄3": UNION_DIST,
        "f̄4": (
            lambda t, a, b: not t[a & b] & ~(t[a] & t[b]),
            "intersection image exceeds the bound",
        ),
    },
    "lower": {
        "f3": INTER_DIST,
        "f4": (
            lambda t, a, b: not (t[a] | t[b]) & ~t[a | b],
            "image union exceeds the union image",
        ),
    },
    "incidence": {"i3": UNION_DIST, "i3'": INTER_DIST},
    "assignment": {"j3": (lambda t, a, b: a == b or not t[a] & t[b], "cells overlap")},
    "ambiguity": {
        "a3.1": (
            lambda t, a, b: not (t[a & b] | t[a | b]) & ~(t[a] | t[b]),
            "mixed union bound fails",
        ),
        "a3.2": (
            lambda t, a, b: not t[a & b] & t[a | b] & ~(t[a] & t[b]),
            "mixed intersection bound fails",
        ),
    },
}


def reference_pair_verdicts(m: SetValuedMap, kind: str) -> dict:
    """axiom -> (ok, witness key, detail) from the full ordered grid of pairs."""
    t, fr = m.table, m.frame
    size = len(t)
    out = {}
    for axiom, (holds, text) in PAIR_AXIOMS[kind].items():
        hit = next(
            ((a, b) for a in range(size) for b in range(size) if not holds(t, a, b)), None
        )
        if hit is None:
            out[axiom] = (True, None, None)
        else:
            a, b = hit
            detail = f"A={fr.format_subset(a)}, B={fr.format_subset(b)}: {text}"
            out[axiom] = (False, (a, b, None), detail)
    return out


def oracle_pair_verdicts(obj) -> dict:
    return {
        v.axiom: (v.ok, v.witness.key() if v.witness else None, v.witness and v.witness.detail)
        for v in oracle_verify(obj).verdicts
    }


def assert_oracle_matches_grid(lower: SetValuedMap, upper: SetValuedMap):
    """Every pair verdict of the four objects built on the two tables."""
    cases = [
        (IntervalStructure(lower, upper), {"upper": upper, "lower": lower}),
        (BasicAssignment(upper), {"assignment": upper}),
        (AmbiguityMap(upper), {"ambiguity": upper}),
        (IncidenceMap(upper, PointMap((0,) * upper.space.n)), {"incidence": upper}),
    ]
    for obj, tables in cases:
        got = oracle_pair_verdicts(obj)
        for kind, table in tables.items():
            for axiom, expected in reference_pair_verdicts(table, kind).items():
                assert got[axiom] == expected, (axiom, table.table)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_half_grid_matches_full_grid_on_every_one_situation_table(m):
    frame = Frame(tuple(f"x{k}" for k in range(m)))
    space = SituationSpace(("w",))
    size = 1 << m
    for bits in range(1 << size):
        t = SetValuedMap(frame, space, tuple(bits >> a & 1 for a in range(size)))
        flipped = SetValuedMap(frame, space, tuple(1 ^ v for v in t.table))
        assert_oracle_matches_grid(t, t)
        assert_oracle_matches_grid(flipped, t)


def _flip(m: SetValuedMap, rng: random.Random) -> SetValuedMap:
    table = list(m.table)
    table[rng.randrange(len(table))] ^= 1 << rng.randrange(m.space.n)
    return SetValuedMap(m.frame, m.space, tuple(table))


@pytest.mark.parametrize("m", [4, 5])
def test_half_grid_matches_full_grid_on_one_bit_faulty_tables(m):
    rng = random.Random(m)
    for seed in range(12):
        j = gen_assignment(GenConfig(m=m, n=6, seed=seed))
        s = structure_from_assignment(j)
        for table in (
            j.map,
            s.lower,
            s.upper,
            ambiguity_from_interval(s).map,
            select_incidence(j, Selector.seeded(seed)).map,
        ):
            faulty = _flip(table, rng)
            assert_oracle_matches_grid(_flip(s.lower, rng), faulty)
            assert_oracle_matches_grid(table, faulty)


def test_the_oracle_checks_set_valued_objects_only():
    p = ProbabilityAssignment.from_integers(SituationSpace(("w1",)), [1])
    with pytest.raises(TypeError, match="^no oracle for ProbabilityAssignment$"):
        oracle_verify(p)
