"""The subset transforms and the exact bridge on large frames.

Seeded m ∈ {9, 12, 16}, n = 64 instances go through the whole pipeline:
build, the extract round trip, Bel/Pl/α, the mass function and the
Bel = Σ m identity.  Bel/Pl/α are checked at sampled subsets against the
per-mask Fraction sums.  At m = 9 the whole lower, upper, extract and gap
tables, and the checkers' verdicts on valid and one-bit-faulty objects, are
compared with the oracle's full enumeration; above that its O(4^m) pair
scans are out of reach.  The documents of an m = 12 pipeline load back to
the bytes they were written as.
"""

import random

import pytest

import ambicalc.interval as interval
from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    IncidenceMap,
    InternalInvariantFailure,
    IntervalStructure,
    Selector,
    SetValuedMap,
    ambiguity_from_interval,
    belief_from_structure,
    check_ambiguity_axioms,
    check_assignment,
    check_belief_identity,
    check_incidence_axioms,
    check_structure,
    decompose_interval,
    extract_assignment,
    mass_from_structure,
    select_incidence,
    structure_from_assignment,
)
from ambicalc.documents import dumps, loads
from ambicalc.harness import GenConfig, gen_assignment, gen_probability
from ambicalc.oracle import (
    oracle_ambiguity_table,
    oracle_extract_table,
    oracle_lower_table,
    oracle_upper_table,
    oracle_verify,
)


@pytest.mark.parametrize("m, seed", [(9, 30), (12, 31), (16, 32)])
def test_pipeline_on_large_frames(m, seed):
    cfg = GenConfig(m=m, n=64, seed=seed)
    j = gen_assignment(cfg)
    p = gen_probability(cfg)
    s = structure_from_assignment(j)
    assert extract_assignment(s) == j
    rep = belief_from_structure(s, p)
    full = j.frame.full
    assert rep.bel[full] == rep.pl[full] == 1
    assert rep.bel[0] == rep.pl[0] == 0
    rng = random.Random(seed)
    for a in [full, *(rng.randrange(full) for _ in range(100))]:
        lo, up = s.lower.table[a], s.upper.table[a]
        assert rep.bel[a] == p.of(lo)
        assert rep.pl[a] == p.of(up)
        assert rep.alpha[a] == p.of(up & ~lo)
    mass = mass_from_structure(s, p)
    # every generated weight is positive, so every cell carries mass
    assert mass.focal_masks() == j.focal_masks()
    assert check_belief_identity(rep, mass).ok


def flip(m: SetValuedMap, rng: random.Random) -> SetValuedMap:
    table = list(m.table)
    table[rng.randrange(len(table))] ^= 1 << rng.randrange(m.space.n)
    return SetValuedMap(m.frame, m.space, tuple(table))


def test_nine_atoms_agree_with_the_oracle_in_full():
    j = gen_assignment(GenConfig(m=9, n=64, seed=30))
    s = structure_from_assignment(j)
    amb = ambiguity_from_interval(s)
    inc = select_incidence(j, Selector.seeded(30))
    assert s.lower.table == oracle_lower_table(j)
    assert s.upper.table == oracle_upper_table(j)
    assert extract_assignment(s).map.table == oracle_extract_table(s)
    assert amb.map.table == oracle_ambiguity_table(s)
    rng = random.Random(9)
    for f in (lambda t: t, lambda t: flip(t, rng)):
        lower, upper = (f(s.lower), s.upper) if rng.randrange(2) else (s.lower, f(s.upper))
        cells, gap, image = f(j.map), f(amb.map), f(inc.map)
        for report, obj in (
            (check_assignment(cells), BasicAssignment(cells)),
            (check_structure(lower, upper), IntervalStructure(lower, upper)),
            (check_ambiguity_axioms(gap), AmbiguityMap(gap)),
            (check_incidence_axioms(image), IncidenceMap(image, inc.origin)),
        ):
            # above 8 atoms a failing pair check reports its test's own pair,
            # where the oracle reports the smallest violating one
            for got, want in zip(report.agreement_key(), oracle_verify(obj).agreement_key(),
                                 strict=True):
                assert got[:2] == want[:2], (type(obj).__name__, got, want)
                assert got[2] is None or want[2] <= got[2], (type(obj).__name__, got, want)


@pytest.mark.parametrize("m, seed", [(12, 41), (16, 42)])
def test_overlap_cross_check_covers_every_subset(m, seed, monkeypatch):
    j = gen_assignment(GenConfig(m=m, n=64, seed=seed))
    # a subset that is neither a singleton, a co-singleton, ∅ nor Θ
    target = int("01" * (m // 2), 2)
    dual = interval.dual_map

    def corrupted(lower):
        upper = dual(lower)
        table = list(upper.table)
        table[target] ^= 1
        return interval.SetValuedMap(upper.frame, upper.space, tuple(table))

    monkeypatch.setattr(interval, "dual_map", corrupted)
    with pytest.raises(InternalInvariantFailure, match="overlap formula") as info:
        structure_from_assignment(j)
    assert str(info.value).endswith(j.frame.format_subset(target))


def test_documents_round_trip_at_twelve_atoms():
    cfg = GenConfig(m=12, n=64, seed=33)
    j = gen_assignment(cfg)
    s = structure_from_assignment(j)
    inc, amb = decompose_interval(s)
    p = gen_probability(cfg)
    docs = (("assignment", j), ("interval", s), ("ambiguity", amb), ("incidence", inc),
            ("probability", p), ("mass", mass_from_structure(s, p)))
    for kind, obj in docs:
        text = dumps(obj)
        assert loads(text) == (kind, obj)
        assert dumps(loads(text)[1]) == text
