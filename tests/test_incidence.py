import itertools
from collections import Counter

import pytest

from ambicalc import (
    AmbiguityAxiomViolation,
    AmbiguityMap,
    Frame,
    FrameMismatch,
    IncidenceAxiomViolation,
    IncompatiblePair,
    PointMap,
    Selector,
    SelectorDomainError,
    SetValuedMap,
    SituationSpace,
    SpaceMismatch,
    ambiguity_from_interval,
    check_compatibility,
    check_incidence_axioms,
    check_sandwich,
    compose_interval,
    decompose_interval,
    incidence_from_map,
    incidence_from_pointmap,
    select_incidence,
)
from ambicalc.sweeps import derive_seed


def all_explicit_selectors(j):
    """Every selector table over the focal cells of an assignment."""
    focals = j.focal_masks()
    choices = [[k for k in range(j.frame.m) if mask >> k & 1] for mask in focals]
    for picks in itertools.product(*choices):
        yield Selector.explicit(dict(zip(focals, picks)))


def test_min_index_incidence(fix1):
    inc = select_incidence(fix1["j"], Selector.min_index())
    assert inc.map.table == (0, 0b101, 0b010, 0b111)
    assert inc.origin.targets == (0, 1, 0)
    assert check_incidence_axioms(inc.map).ok
    assert check_sandwich(fix1["s"], inc).ok


def test_pointmap_construction(fix2):
    assert fix2["inc"].map.table == (0, 1, 0, 1, 2, 3, 2, 3)
    assert check_incidence_axioms(fix2["inc"].map).ok


def test_selector_behaviour():
    sel = Selector.min_index()
    assert sel.choose(0b110) == 1
    seeded = Selector.seeded(9)
    pick = seeded.choose(0b101)
    assert pick in (0, 2)
    assert seeded.choose(0b101) == pick  # stable per focal element
    explicit = Selector.explicit({0b11: 1})
    assert explicit.choose(0b11) == 1
    with pytest.raises(SelectorDomainError):
        explicit.choose(0b01)  # not in the table
    with pytest.raises(SelectorDomainError):
        Selector.explicit({0b01: 1}).choose(0b01)  # atom outside the subset
    with pytest.raises(SelectorDomainError):
        sel.choose(0)


def test_seeded_choice_is_stable_and_follows_its_rule():
    # atom number derive_seed("selector", seed, mask) mod |mask| of the mask
    for seed in (*range(20), 2**70):
        sel = Selector.seeded(seed)
        for mask in range(1, 1 << 6):
            atoms = [k for k in range(6) if mask >> k & 1]
            pick = sel.choose(mask)
            assert pick == atoms[derive_seed("selector", seed, mask) % len(atoms)]
            assert Selector.seeded(seed).choose(mask) == pick


def test_seeded_choice_is_uniform_over_the_focal_atoms():
    seeds = 3000
    picks = Counter(Selector.seeded(seed).choose(0b10101) for seed in range(seeds))
    assert set(picks) == {0, 2, 4}
    for count in picks.values():
        assert abs(count / seeds - 1 / 3) <= 0.05


def test_all_explicit_selectors_small_fixtures(fix1, fix3):
    for fx in (fix1, fix3):
        seen = 0
        for sel in all_explicit_selectors(fx["j"]):
            inc = select_incidence(fx["j"], sel)
            assert check_incidence_axioms(inc.map).ok
            assert check_sandwich(fx["s"], inc).ok
            seen += 1
        assert seen == 2  # both fixtures have exactly one binary choice


def test_seeded_selectors_many(fix1):
    for k in range(20):
        inc = select_incidence(fix1["j"], Selector.seeded(k))
        assert check_incidence_axioms(inc.map).ok
        assert check_sandwich(fix1["s"], inc).ok


def test_sandwich_violation(fix1):
    # pointing every situation at x blows the upper bound at {x}
    stray = incidence_from_pointmap(PointMap((0, 0, 0)), fix1["frame"], fix1["space"])
    rep = check_sandwich(fix1["s"], stray)
    assert not rep.find("sandwich-upper").ok
    assert rep.find("sandwich-upper").witness.subset_a == 1


def test_incidence_admission(fix1):
    inc = select_incidence(fix1["j"], Selector.min_index())
    again = incidence_from_map(inc.map)
    assert again.origin == inc.origin
    with pytest.raises(IncidenceAxiomViolation):
        incidence_from_map(fix1["s"].upper)  # fails complement preservation


def test_compatibility_fix1(fix1):
    amb = ambiguity_from_interval(fix1["s"])
    inc = select_incidence(fix1["j"], Selector.min_index())
    assert check_compatibility(inc, amb).ok


def test_compatibility_fix2_witness(fix2):
    rep = check_compatibility(fix2["inc"], fix2["amb"])
    v = rep.find("compatibility")
    assert not v.ok
    assert v.witness.key() == (1, 2, None)
    assert "A={x}, B={y}" in v.witness.detail


def test_compose_fix2_raises(fix2):
    with pytest.raises(IncompatiblePair) as err:
        compose_interval(fix2["inc"], fix2["amb"])
    assert str(err.value) == "compatibility fails at A={x}, B={y}"


def test_decompose_compose_roundtrip(fix1, fix3):
    for fx in (fix1, fix3):
        s = fx["s"]
        for sel in itertools.chain(
            [Selector.min_index(), Selector.seeded(4), Selector.seeded(11)],
            all_explicit_selectors(fx["j"]),
        ):
            inc, amb = decompose_interval(s, sel)
            assert compose_interval(inc, amb) == s
            # the gap never depends on the selector
            assert amb == ambiguity_from_interval(s)


def test_compose_identities(fix1):
    inc, amb = decompose_interval(fix1["s"])
    s = compose_interval(inc, amb)
    omega = s.space.full
    for a in range(4):
        assert s.upper.table[a] == inc.map.table[a] | amb.map.table[a]
        assert s.lower.table[a] == inc.map.table[a] & (omega ^ amb.map.table[a])


def test_compose_rejects_invalid_ambiguity(fix1):
    inc, _ = decompose_interval(fix1["s"])
    bad = AmbiguityMap(SetValuedMap(fix1["frame"], fix1["space"], (1, 0, 0, 1)))
    with pytest.raises(AmbiguityAxiomViolation):
        compose_interval(inc, bad)


def test_incidence_axiom_failures(fix1):
    rep = check_incidence_axioms(fix1["s"].upper)
    assert not rep.ok
    # homomorphism holds for this table, complement preservation does not
    assert rep.find("i3").ok
    assert not rep.find("i4").ok
    assert rep.find("i4").witness.subset_a == 1


def test_pointmap_validation():
    with pytest.raises(ValueError):
        incidence_from_pointmap(PointMap((0, 3)), Frame(("x", "y")), SituationSpace(("u", "v")))
    with pytest.raises(ValueError):
        incidence_from_pointmap(PointMap((0,)), Frame(("x",)), SituationSpace(("u", "v")))


def test_point_map_keeps_its_targets_as_a_tuple():
    assert PointMap([0, 1, 0]).targets == (0, 1, 0)


def test_sandwich_needs_one_frame_and_one_space(fix1):
    inc = select_incidence(fix1["j"], Selector.min_index())
    other_frame = incidence_from_pointmap(PointMap((0, 1, 0)), Frame(("p", "q")), fix1["space"])
    other_space = incidence_from_pointmap(
        PointMap((0, 1, 0)), fix1["frame"], SituationSpace(("a", "b", "c"))
    )
    assert check_sandwich(fix1["s"], inc).ok
    with pytest.raises(FrameMismatch, match="^structure and incidence map use different frames$"):
        check_sandwich(fix1["s"], other_frame)
    with pytest.raises(SpaceMismatch, match="^structure and incidence map use different spaces$"):
        check_sandwich(fix1["s"], other_space)
