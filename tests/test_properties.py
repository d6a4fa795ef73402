"""Property tests: every law the library promises, on generated instances."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    Frame,
    IncompatiblePair,
    IntervalStructure,
    PointMap,
    ProbabilityAssignment,
    Selector,
    SetValuedMap,
    SituationSpace,
    ambiguity_from_interval,
    belief_from_structure,
    check_ambiguity_axioms,
    check_assignment,
    check_belief_identity,
    check_compatibility,
    check_incidence_axioms,
    check_sandwich,
    check_structure,
    compose_interval,
    decompose_interval,
    dual_map,
    extract_assignment,
    fishburn_report,
    incidence_from_pointmap,
    lower_table_from_cells,
    mass_from_structure,
    oracle_ambiguity_table,
    oracle_extract_table,
    oracle_lower_table,
    oracle_upper_table,
    oracle_verify,
    select_incidence,
    structure_from_assignment,
    structure_from_mass,
)


def _universes(m, n):
    return Frame([f"x{k}" for k in range(m)]), SituationSpace([f"w{k}" for k in range(n)])


@st.composite
def assignments(draw, max_m=4, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    frame, space = _universes(m, n)
    cells = [0] * (1 << m)
    for w in range(n):
        cells[draw(st.integers(1, (1 << m) - 1))] |= 1 << w
    return BasicAssignment(SetValuedMap(frame, space, tuple(cells)))


@st.composite
def raw_tables(draw, max_m=3, max_n=4):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    frame, space = _universes(m, n)
    table = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(1 << m))
    return SetValuedMap(frame, space, table)


@st.composite
def raw_pairs(draw, max_m=3, max_n=4):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    frame, space = _universes(m, n)
    mk = lambda: tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(1 << m))
    return SetValuedMap(frame, space, mk()), SetValuedMap(frame, space, mk())


@st.composite
def weights_for(draw, n):
    return [draw(st.integers(0, 20)) for _ in range(n - 1)] + [draw(st.integers(1, 20))]


@given(assignments())
def test_assignment_roundtrip(j):
    s = structure_from_assignment(j)
    assert check_structure(s.lower, s.upper).ok
    assert extract_assignment(s) == j
    assert s.lower.table == oracle_lower_table(j)
    assert s.upper.table == oracle_upper_table(j)
    assert oracle_extract_table(s) == j.map.table


@given(assignments())
def test_gap_is_an_ambiguity_measure(j):
    s = structure_from_assignment(j)
    amb = ambiguity_from_interval(s)
    assert check_ambiguity_axioms(amb.map).ok
    assert amb.map.table == oracle_ambiguity_table(s)


@given(assignments(), st.integers(0, 2**32))
def test_decompose_compose_identity(j, seed):
    s = structure_from_assignment(j)
    for sel in (Selector.min_index(), Selector.seeded(seed)):
        inc, amb = decompose_interval(s, sel)
        assert check_incidence_axioms(inc.map).ok
        assert check_sandwich(s, inc).ok
        assert check_compatibility(inc, amb).ok
        assert compose_interval(inc, amb) == s
        assert amb == ambiguity_from_interval(s)


@given(raw_tables())
def test_dual_is_an_involution(m):
    assert dual_map(dual_map(m)).table == m.table


@given(raw_pairs())
def test_oracle_agrees_on_arbitrary_pairs(pair):
    lower, upper = pair
    main = check_structure(lower, upper)
    naive = oracle_verify(IntervalStructure(lower, upper))
    assert main.agreement_key() == naive.agreement_key()


@given(raw_tables())
def test_oracle_agrees_on_arbitrary_cells(m):
    main = check_assignment(m)
    naive = oracle_verify(BasicAssignment(m))
    assert main.agreement_key() == naive.agreement_key()


@given(raw_tables())
def test_oracle_agrees_on_arbitrary_ambiguity_tables(m):
    main = check_ambiguity_axioms(m)
    naive = oracle_verify(AmbiguityMap(m))
    assert main.agreement_key() == naive.agreement_key()


@given(st.data())
def test_compatibility_decides_composability(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    frame, space = _universes(m, n)
    cells = [0] * (1 << m)
    for w in range(n):
        cells[data.draw(st.integers(1, (1 << m) - 1))] |= 1 << w
    j = BasicAssignment(SetValuedMap(frame, space, tuple(cells)))
    amb = ambiguity_from_interval(structure_from_assignment(j))
    targets = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    inc = incidence_from_pointmap(PointMap(targets), frame, space)
    compatible = check_compatibility(inc, amb).ok
    try:
        s = compose_interval(inc, amb)
    except IncompatiblePair:
        assert not compatible
    else:
        assert compatible
        assert check_structure(s.lower, s.upper).ok
        assert ambiguity_from_interval(s) == amb


@given(st.data())
def test_belief_bridge_identities(data):
    j = data.draw(assignments())
    s = structure_from_assignment(j)
    raw = data.draw(weights_for(j.space.n))
    p = ProbabilityAssignment.from_integers(j.space, raw)
    rep = belief_from_structure(s, p)
    mass = mass_from_structure(s, p)
    assert check_belief_identity(rep, mass).ok
    assert fishburn_report(rep).ok
    # Pl is the complement dual of Bel
    full = j.frame.full
    for a in range(1 << j.frame.m):
        assert rep.pl[a] == 1 - rep.bel[full ^ a]
    # the canonical model rebuilds the same numbers
    _, prob2, j2, s2 = structure_from_mass(mass)
    rep2 = belief_from_structure(s2, prob2)
    assert rep2.bel == rep.bel
    assert rep2.pl == rep.pl
    assert mass_from_structure(s2, prob2).masses == mass.masses


@given(st.data())
def test_belief_monotone_under_inclusion(data):
    j = data.draw(assignments(max_m=3, max_n=5))
    s = structure_from_assignment(j)
    raw = data.draw(weights_for(j.space.n))
    p = ProbabilityAssignment.from_integers(j.space, raw)
    rep = belief_from_structure(s, p)
    size = 1 << j.frame.m
    for a in range(size):
        for b in range(size):
            if a & b == a:  # A ⊆ B
                assert rep.bel[a] <= rep.bel[b]
                assert rep.pl[a] <= rep.pl[b]


@given(assignments(max_m=3, max_n=5), st.integers(0, 2**16))
def test_selected_incidence_is_sandwiched(j, seed):
    s = structure_from_assignment(j)
    inc = select_incidence(j, Selector.seeded(seed))
    assert check_incidence_axioms(inc.map).ok
    rep = check_sandwich(s, inc)
    assert rep.ok
    for a in range(1 << j.frame.m):
        assert s.lower.table[a] & ~inc.map.table[a] == 0
        assert inc.map.table[a] & ~s.upper.table[a] == 0


@given(assignments(max_m=3, max_n=4))
def test_mass_weights_are_cell_probabilities(j):
    s = structure_from_assignment(j)
    n = j.space.n
    p = ProbabilityAssignment.from_integers(j.space, [1] * n)
    mass = mass_from_structure(s, p)
    for mask, value in mass.masses:
        assert value == Fraction(j.map.table[mask].bit_count(), n)


@given(st.data())
def test_integer_bridge_matches_the_per_mask_fraction_sums(data):
    j = data.draw(assignments(max_m=6, max_n=10))
    s = structure_from_assignment(j)
    # weights_for draws zeros too; only the last weight is kept positive
    p = ProbabilityAssignment.from_integers(j.space, data.draw(weights_for(j.space.n)))
    rep = belief_from_structure(s, p)
    for a in range(1 << j.frame.m):
        lo, up = s.lower.table[a], s.upper.table[a]
        assert rep.bel[a] == p.of(lo)
        assert rep.pl[a] == p.of(up)
        assert rep.alpha[a] == p.of(up & ~lo)
    cells = extract_assignment(s).map.table
    for mask, value in mass_from_structure(s, p).masses:
        assert value == p.of(cells[mask])


@given(assignments(max_m=6, max_n=10))
def test_subset_transforms_match_the_oracle(j):
    lower = lower_table_from_cells(j.map.table)
    assert lower == oracle_lower_table(j)
    assert dual_map(SetValuedMap(j.frame, j.space, lower)).table == oracle_upper_table(j)
    s = structure_from_assignment(j)
    assert extract_assignment(s).map.table == oracle_extract_table(s) == j.map.table
