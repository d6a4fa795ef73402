import pytest

from ambicalc import (
    Frame,
    GenConfig,
    SetValuedMap,
    SituationSpace,
    fuzz,
    gen_assignment,
    gen_pointmap,
    gen_probability,
    universes_for,
)
from ambicalc.harness import _drop_atom, _drop_situation, _shrink_map
from ambicalc.interval import check_assignment


def test_genconfig_validation():
    GenConfig(m=1, n=1)
    for kwargs in (
        {"m": 0, "n": 1},
        {"m": 17, "n": 1},
        {"m": 1, "n": 0},
        {"m": 1, "n": 65},
        {"m": 1, "n": 1, "trials": 0},
        {"m": 1, "n": 1, "seeded_selectors": -1},
    ):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


@pytest.mark.parametrize("bias", [float("nan"), float("inf"), float("-inf"), 1e308, -1e308])
def test_genconfig_rejects_unusable_focal_bias(bias):
    with pytest.raises(ValueError, match="focal bias"):
        GenConfig(m=5, n=4, focal_bias=bias)


def test_focal_bias_is_judged_at_the_atom_count():
    # exp(700 * k) overflows from k = 2 on, exp(-700 * k) stays positive at k = 1
    with pytest.raises(ValueError, match="at 5 atoms"):
        GenConfig(m=5, n=4, focal_bias=700.0)
    assert gen_assignment(GenConfig(m=1, n=4, focal_bias=700.0)).focal_masks() == (1,)
    assert check_assignment(gen_assignment(GenConfig(m=16, n=8, focal_bias=-700.0)).map).ok


def test_gen_assignment_deterministic_and_valid():
    cfg = GenConfig(m=3, n=6, seed=11)
    a = gen_assignment(cfg)
    b = gen_assignment(cfg)
    assert a == b
    assert a != gen_assignment(GenConfig(m=3, n=6, seed=12))
    for seed in range(40):
        j = gen_assignment(GenConfig(m=4, n=8, seed=seed))
        assert check_assignment(j.map).ok


def test_gen_assignment_focal_bias():
    wide = gen_assignment(GenConfig(m=5, n=30, seed=3, focal_bias=4.0))
    narrow = gen_assignment(GenConfig(m=5, n=30, seed=3, focal_bias=-4.0))
    avg = lambda j: sum(
        mask.bit_count() * j.map.table[mask].bit_count() for mask in j.focal_masks()
    ) / 30
    assert avg(wide) > avg(narrow)


def test_gen_pointmap_and_probability():
    cfg = GenConfig(m=3, n=5, seed=2)
    g = gen_pointmap(cfg)
    assert g == gen_pointmap(cfg)
    assert all(0 <= t < 3 for t in g.targets)
    p = gen_probability(cfg)
    assert p == gen_probability(cfg)
    assert sum(p.weights) == 1
    assert all(w > 0 for w in p.weights)
    z = gen_probability(GenConfig(m=3, n=5, seed=2, zero_weights=True))
    assert sum(z.weights) == 1


def test_universes_for():
    frame, space = universes_for(GenConfig(m=2, n=3))
    assert frame.atoms == ("x1", "x2")
    assert space.names == ("w1", "w2", "w3")


def test_fuzz_standard_clean():
    rep = fuzz(GenConfig(m=4, n=6, seed=5, trials=40))
    assert rep.ok
    assert rep.mode == "standard"
    for stat in rep.stats:
        assert (stat.passes, stat.fails) == (40, 0)
    assert [s.name for s in rep.stats] == [
        "assignment-roundtrip",
        "ambiguity-axioms",
        "incidence-selection",
        "decompose-compose",
        "belief-bridge",
        "alpha-axioms",
        "oracle-agreement",
    ]


def test_fuzz_deterministic_rerun():
    cfg = GenConfig(m=5, n=10, seed=42, trials=30)
    assert fuzz(cfg).render() == fuzz(cfg).render()


def test_fuzz_thread_count_is_invisible(monkeypatch):
    cfg = GenConfig(m=4, n=8, seed=13, trials=24)
    base = fuzz(cfg).render()
    monkeypatch.setenv("AMBIG_THREADS", "4")
    assert fuzz(cfg).render() == base
    monkeypatch.setenv("AMBIG_THREADS", "2")
    assert fuzz(cfg).render() == base


def test_fault_injection_always_detected():
    rep = fuzz(GenConfig(m=4, n=6, seed=21, trials=60, fault_injection=True))
    assert rep.mode == "fault-injection"
    assert rep.ok
    assert rep.stat("fault-detected").passes == 60
    assert rep.stat("oracle-agreement").passes == 60


def test_fuzz_report_json_shape():
    rep = fuzz(GenConfig(m=3, n=4, seed=1, trials=5))
    obj = rep.to_json_obj()
    assert obj["trials"] == 5
    assert set(obj["properties"]) == {s.name for s in rep.stats}
    assert obj["failures"] == []


def test_drop_situation_reindexes():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    m = SetValuedMap(fr, sp, (0, 0b001, 0b010, 0b100))
    out = _drop_situation(m, 1)
    assert out.space.names == ("w1", "w3")
    assert out.table == (0, 0b01, 0, 0b10)


def test_drop_atom_merges_into_neighbor():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    m = SetValuedMap(fr, sp, (0, 0b001, 0b010, 0b100))
    merged = _drop_atom(m, 1)
    assert merged.frame.atoms == ("x",)
    assert merged.table == (0, 0b111)
    assert check_assignment(merged).ok


def test_shrink_finds_small_witness():
    fr = Frame(("x", "y", "z"))
    sp = SituationSpace(("w1", "w2", "w3", "w4"))
    # situation w2 sits in two cells; everything else is noise
    m = SetValuedMap(fr, sp, (0, 0b0011, 0b0110, 0, 0b1000, 0, 0, 0b0100))
    assert not check_assignment(m).ok

    def still_fails(cand):
        return not check_assignment(cand).ok

    small = _shrink_map(m, still_fails)
    assert small.space.n < sp.n or small.frame.m < fr.m
    assert still_fails(small)
