"""The exact pair-axiom tests against the ascending scans and the oracle.

Each ``*_failure`` test in ``ambicalc.sweeps`` decides a pair axiom from a
local condition.  Here every 1-situation table of a small frame is run
through both the test and the full scan, seeded multi-situation tables at
m ∈ {6, 8} through the checkers and the oracle, and tables at m ∈ {9, 12, 16},
where the oracle is out of reach, through the checkers alone, with every
reported witness re-verified from the axiom's formula.  Small tables lifted
to m ∈ {9, 12} carry their scanned a3.1/a3.2 verdicts with them.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    Frame,
    IncidenceMap,
    IntervalStructure,
    PointMap,
    SetValuedMap,
    SituationSpace,
    check_ambiguity_axioms,
    check_assignment,
    check_compatibility,
    check_incidence_axioms,
    check_structure,
    incidence_from_pointmap,
    oracle_verify,
)
from ambicalc.numeric import BeliefReport, fishburn_report
from ambicalc.sweeps import (
    compat_failure,
    first_compat_violation,
    first_inter_bound_violation,
    first_inter_hom_violation,
    first_mixed_inter_violation,
    first_mixed_union_violation,
    first_overlap_violation,
    first_submodular_violation,
    first_union_bound_violation,
    first_union_hom_violation,
    inter_hom_failure,
    mixed_inter_failure,
    mixed_union_failure,
    monotone_failure,
    overlap_failure,
    split_form_misses,
    submodular_failure,
    union_hom_failure,
)

# the formula of each pair axiom, on a table t and a pair (a, b)
UNION_HOM = lambda t, a, b: t[a | b] != t[a] | t[b]
INTER_HOM = lambda t, a, b: t[a & b] != t[a] & t[b]
INTER_BOUND = lambda t, a, b: t[a & b] & ~(t[a] & t[b]) != 0
UNION_BOUND = lambda t, a, b: (t[a] | t[b]) & ~t[a | b] != 0
OVERLAP = lambda t, a, b: a != b and t[a] & t[b] != 0
MIXED_UNION = lambda t, a, b: (t[a & b] | t[a | b]) & ~(t[a] | t[b]) != 0
MIXED_INTER = lambda t, a, b: t[a & b] & t[a | b] & ~(t[a] & t[b]) != 0
SUBMODULAR = lambda t, a, b: t[a & b] + t[a | b] > t[a] + t[b]


def compat_violated(amb, inc, a, b):
    u = a | b
    return (amb[a] | amb[b]) & ~(inc[u] | amb[u]) != 0


def one_situation_tables(m):
    size = 1 << m
    for bits in range(1 << size):
        yield tuple(bits >> a & 1 for a in range(size))


def agrees(test, scan, formula, t):
    """The test and the full scan agree on the verdict, and a failure's pair
    really violates the axiom."""
    local = test(t)
    if (local is None) != (scan(t, len(t), None) is None):
        return False
    return local is None or formula(t, *local)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exact_tests_match_the_scans_on_every_one_situation_table(m):
    pairs = (
        (union_hom_failure, first_union_hom_violation, UNION_HOM),
        (inter_hom_failure, first_inter_hom_violation, INTER_HOM),
        (monotone_failure, first_inter_bound_violation, INTER_BOUND),
        (monotone_failure, first_union_bound_violation, UNION_BOUND),
        (overlap_failure, first_overlap_violation, OVERLAP),
        (mixed_union_failure, first_mixed_union_violation, MIXED_UNION),
        (mixed_inter_failure, first_mixed_inter_violation, MIXED_INTER),
    )
    for t in one_situation_tables(m):
        for test, scan, formula in pairs:
            assert agrees(test, scan, formula, t), (test.__name__, t)


def lifted_subsets(m, big):
    """A ∩ X for every subset A of ``big`` atoms, as a subset of the m atoms
    of X = {x1, x4, x7, …}.  A ↦ A ∩ X is a lattice homomorphism, so the
    table t(A) = s(A ∩ X) keeps every pair-axiom verdict of s."""
    return [
        sum(1 << k for k in range(m) if a >> 3 * k & 1) for a in range(1 << big)
    ]


@pytest.mark.parametrize("big", [9, 12])
def test_mixed_bound_tests_keep_the_verdicts_of_lifted_tables(big):
    for m in (1, 2, 3):
        projected = lifted_subsets(m, big)
        for s in one_situation_tables(m):
            t = tuple(s[p] for p in projected)
            for test, scan, formula in (
                (mixed_union_failure, first_mixed_union_violation, MIXED_UNION),
                (mixed_inter_failure, first_mixed_inter_violation, MIXED_INTER),
            ):
                hit = test(t)
                assert (hit is None) == (scan(s, len(s), None) is None), (test.__name__, s)
                assert hit is None or formula(t, *hit), (test.__name__, s)


@pytest.mark.parametrize("m, valid", [(1, 1), (2, 2), (3, 5), (4, 12)])
def test_split_form_is_the_conjunction_of_a1_to_a3_2(m, valid):
    size = 1 << m
    full = size - 1
    count = 0
    for t in one_situation_tables(m):
        conjunction = (
            t[0] == 0
            and all(t[a] == t[full ^ a] for a in range(size))
            and first_mixed_union_violation(t, size, None) is None
            and first_mixed_inter_violation(t, size, None) is None
        )
        assert (split_form_misses(t) == 0) == conjunction, t
        count += conjunction
    assert count == valid


@pytest.mark.parametrize("m", [1, 2, 3])
def test_compat_test_matches_the_scan_on_every_pair_of_tables(m):
    tables = list(one_situation_tables(m))
    for amb, inc in product(tables, tables):
        local = compat_failure(amb, inc)
        scanned = first_compat_violation(amb, inc, len(amb), None)
        assert (local is None) == (scanned is None), (amb, inc)
        assert local is None or compat_violated(amb, inc, *local)


def test_compat_test_matches_the_scan_at_four_atoms():
    """Every 1-situation ambiguity table against the incidence map of the
    point map onto x1; relabeling the atoms carries these pairs onto those of
    every other point map."""
    size = 16
    inc = tuple(a & 1 for a in range(size))
    for amb in one_situation_tables(4):
        local = compat_failure(amb, inc)
        assert (local is None) == (first_compat_violation(amb, inc, size, None) is None)
        assert local is None or compat_violated(amb, inc, *local)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_submodular_test_matches_the_scan_on_small_integer_tables(m):
    size = 1 << m
    for values in product(range(3), repeat=size):
        assert agrees(submodular_failure, first_submodular_violation, SUBMODULAR, values)


def test_submodular_test_matches_the_scan_on_random_tables():
    rng = random.Random(5)
    for m in (4, 5):
        for _ in range(300):
            t = tuple(rng.randrange(4) for _ in range(1 << m))
            assert agrees(submodular_failure, first_submodular_violation, SUBMODULAR, t)


# --- seeded multi-situation tables


def universes(m, n):
    return Frame(tuple(f"x{k + 1}" for k in range(m))), SituationSpace(
        tuple(f"w{k + 1}" for k in range(n))
    )


def valid_tables(m, n, rng):
    """Cells, lower and upper tables of a random assignment (OR-zeta)."""
    size = 1 << m
    cells = [0] * size
    for w in range(n):
        cells[rng.randrange(1, size)] |= 1 << w
    lower = list(cells)
    for k in range(m):
        bit = 1 << k
        for a in range(size):
            if a & bit:
                lower[a] |= lower[a ^ bit]
    omega = (1 << n) - 1
    upper = [omega ^ lower[(size - 1) ^ a] for a in range(size)]
    return cells, lower, upper


def flip(table, n, rng):
    out = list(table)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(n)
    return out


def seeded_objects(m, n, seed):
    """A valid object of each kind and a one-bit-faulty copy of each."""
    rng = random.Random(seed)
    frame, space = universes(m, n)
    cells, lower, upper = valid_tables(m, n, rng)
    gap = [u & ~lo for lo, u in zip(lower, upper)]
    inc = incidence_from_pointmap(PointMap(tuple(rng.randrange(m) for _ in range(n))), frame, space)

    def svm(table):
        return SetValuedMap(frame, space, tuple(table))

    lower_side = rng.randrange(2)
    return [
        BasicAssignment(svm(cells)),
        BasicAssignment(svm(flip(cells, n, rng))),
        IntervalStructure(svm(lower), svm(upper)),
        IntervalStructure(svm(flip(lower, n, rng)), svm(upper))
        if lower_side
        else IntervalStructure(svm(lower), svm(flip(upper, n, rng))),
        AmbiguityMap(svm(gap)),
        AmbiguityMap(svm(flip(gap, n, rng))),
        inc,
        IncidenceMap(svm(flip(inc.map.table, n, rng)), inc.origin),
    ]


def check(obj):
    if isinstance(obj, BasicAssignment):
        return check_assignment(obj.map)
    if isinstance(obj, IntervalStructure):
        return check_structure(obj.lower, obj.upper)
    if isinstance(obj, AmbiguityMap):
        return check_ambiguity_axioms(obj.map)
    return check_incidence_axioms(obj.map)


@pytest.mark.parametrize("m, n, seed", [(6, 12, 1), (6, 40, 2), (8, 64, 3)])
def test_checkers_agree_with_the_oracle_witness_for_witness(m, n, seed):
    objects = seeded_objects(m, n, seed)
    for k, obj in enumerate(objects):
        report = check(obj)
        assert report.ok == (k % 2 == 0)
        assert report.agreement_key() == oracle_verify(obj).agreement_key()


# --- above the scan limit: no oracle, so re-verify every witness

PAIR_FORMULAS = {
    "f̄3": ("upper", UNION_HOM),
    "f̄4": ("upper", INTER_BOUND),
    "f3": ("lower", INTER_HOM),
    "f4": ("lower", UNION_BOUND),
    "j3": ("cells", OVERLAP),
    "i3": ("inc", UNION_HOM),
    "i3'": ("inc", INTER_HOM),
    "a3.1": ("amb", MIXED_UNION),
    "a3.2": ("amb", MIXED_INTER),
    "α3": ("alpha", SUBMODULAR),
}


def assert_witnesses_hold(report, tables, omega):
    """Re-derive every failed verdict from its formula and its witness."""
    full = len(next(iter(tables.values()))) - 1
    for v in report.verdicts:
        if v.ok:
            continue
        w = v.witness
        a = w.subset_a
        if v.axiom in PAIR_FORMULAS:
            name, formula = PAIR_FORMULAS[v.axiom]
            assert formula(tables[name], a, w.subset_b), v
        elif v.axiom == "compatibility":
            assert compat_violated(tables["amb"], tables["inc"], a, w.subset_b), v
        elif v.axiom == "duality":
            assert tables["lower"][a] != omega ^ tables["upper"][full ^ a], v
        elif v.axiom == "sandwich":
            assert tables["lower"][a] & ~tables["upper"][a], v
        elif v.axiom == "a2":
            assert tables["amb"][a] != tables["amb"][full ^ a], v
        elif v.axiom == "i4":
            assert omega ^ tables["inc"][a] != tables["inc"][full ^ a], v
        elif v.axiom == "j1":
            assert a == 0 and tables["cells"][0], v
        elif v.axiom == "j2":
            covered = 0
            for cell in tables["cells"]:
                covered |= cell
            assert not covered >> w.situation & 1, v
        else:
            raise AssertionError(f"unexpected failure {v}")


def wide_subset(rng, m):
    """A random subset with at least two atoms, other than Θ."""
    while True:
        a = rng.randrange(1, (1 << m) - 1)
        if a.bit_count() >= 2:
            return a


def belief_report(frame, lower, upper, weights):
    total = sum(weights)

    def prob(mask):
        return Fraction(sum(wt for k, wt in enumerate(weights) if mask >> k & 1), total)

    bel = tuple(prob(lo) for lo in lower)
    pl = tuple(prob(up) for up in upper)
    return BeliefReport(frame, bel, pl, tuple(p - b for b, p in zip(bel, pl)))


@pytest.mark.parametrize("m, n, seed", [(9, 64, 11), (12, 64, 12)])
def test_valid_tables_pass_every_axiom_above_eight_atoms(m, n, seed):
    rng = random.Random(seed)
    frame, space = universes(m, n)
    cells, lower, upper = valid_tables(m, n, rng)
    gap = [u & ~lo for lo, u in zip(lower, upper)]

    def svm(table):
        return SetValuedMap(frame, space, tuple(table))

    inc = incidence_from_pointmap(PointMap(tuple(rng.randrange(m) for _ in range(n))), frame, space)
    assert check_assignment(svm(cells)).ok
    assert check_structure(svm(lower), svm(upper)).ok
    assert check_ambiguity_axioms(svm(gap)).ok
    assert check_incidence_axioms(inc.map).ok
    if m <= 9:
        weights = [rng.randint(1, 1000) for _ in range(n)]
        assert fishburn_report(belief_report(frame, lower, upper, weights)).ok
    # an incidence map sandwiched by the structure is compatible with its gap
    targets = [0] * n
    for a, cell in enumerate(cells):
        for w in range(n):
            if cell >> w & 1:
                targets[w] = (a & -a).bit_length() - 1
    chosen = incidence_from_pointmap(PointMap(tuple(targets)), frame, space)
    assert check_compatibility(chosen, AmbiguityMap(svm(gap))).ok


@pytest.mark.parametrize("m, n, seed", [(9, 64, 21), (9, 20, 22), (12, 64, 23), (12, 30, 24)])
def test_one_flipped_bit_fails_with_a_true_witness_above_eight_atoms(m, n, seed):
    """A bit flipped in the image of a subset with two or more atoms breaks
    union distribution there."""
    rng = random.Random(seed)
    frame, space = universes(m, n)
    omega = space.full
    cells, lower, upper = valid_tables(m, n, rng)

    def svm(table):
        return SetValuedMap(frame, space, tuple(table))

    bad_upper = list(upper)
    bad_upper[wide_subset(rng, m)] ^= 1 << rng.randrange(n)
    report = check_structure(svm(lower), svm(bad_upper))
    assert not report.find("f̄3").ok
    assert_witnesses_hold(report, {"lower": lower, "upper": bad_upper}, omega)

    bad_cells = flip(cells, n, rng)
    report = check_assignment(svm(bad_cells))
    assert not report.ok
    assert_witnesses_hold(report, {"cells": bad_cells}, omega)

    inc = incidence_from_pointmap(PointMap(tuple(rng.randrange(m) for _ in range(n))), frame, space)
    bad_inc = list(inc.map.table)
    bad_inc[wide_subset(rng, m)] ^= 1 << rng.randrange(n)
    report = check_incidence_axioms(svm(bad_inc))
    assert not report.find("i3").ok
    assert_witnesses_hold(report, {"inc": bad_inc}, omega)

    gap = [u & ~lo for lo, u in zip(lower, upper)]
    report = check_compatibility(IncidenceMap(svm(bad_inc), inc.origin), AmbiguityMap(svm(gap)))
    assert_witnesses_hold(report, {"amb": gap, "inc": bad_inc}, omega)


def test_a_failing_submodularity_gets_a_true_witness_above_eight_atoms():
    """α is 1/2 on {x1,x2} and its complement and 0 elsewhere, so the pair
    ({x1}, {x2}) breaks submodularity."""
    m = 9
    frame, _ = universes(m, 4)
    size = 1 << m
    full = size - 1
    half = Fraction(1, 2)
    alpha = [Fraction(0)] * size
    alpha[0b11] = alpha[full ^ 0b11] = half
    bel = [Fraction(0)] * full + [Fraction(1)]
    pl = [b + x for b, x in zip(bel, alpha)]
    report = fishburn_report(BeliefReport(frame, tuple(bel), tuple(pl), tuple(alpha)))
    assert [v.axiom for v in report.verdicts if not v.ok] == ["α3"]
    assert_witnesses_hold(report, {"alpha": [2 * x for x in alpha]}, 0)


def found_case(width):
    """A valid m=12, n=8 gap with situation ω dropped from a(A) and a(¬A),
    where A holds one atom x of ω's cell F plus ``width`` atoms outside F.

    Per situation, the subsets whose gap image misses ω are those that hold
    F or miss it; adding A and ¬A breaks their closure (A ∪ B splits F for a
    B that misses F and A), so a3.1 fails.  The subsets whose image holds ω
    stay order-convex when A = {x}, so a3.2 holds; with two atoms outside F
    in A, {x, p} ⊂ A ⊂ A+r breaks convexity, so a3.2 fails.
    """
    m, n = 12, 8
    frame, space = universes(m, n)
    cells, lower, upper = valid_tables(m, n, random.Random(40))
    gap = [u & ~lo for lo, u in zip(lower, upper)]
    full = (1 << m) - 1
    f, cell = next((f, c) for f, c in enumerate(cells) if f.bit_count() >= 2 and c)
    assert (full ^ f).bit_count() >= 3
    w = cell & -cell
    a = (f & -f) | sum(sorted(1 << x for x in range(m) if not f >> x & 1)[:width])
    gap[a] &= ~w
    gap[full ^ a] &= ~w
    return SetValuedMap(frame, space, tuple(gap)), gap


@pytest.mark.parametrize("width, a3_2", [(0, True), (2, False)])
def test_mixed_bounds_are_exact_above_eight_atoms(width, a3_2):
    svm, gap = found_case(width)
    report = check_ambiguity_axioms(svm)
    assert [v.axiom for v in report.verdicts if v.ok] == ["a1", "a2"] + ["a3.2"] * a3_2 + ["a4"]
    assert_witnesses_hold(report, {"amb": gap}, svm.space.full)


def test_a_one_bit_faulty_ambiguity_map_at_sixteen_atoms():
    m, n = 16, 64
    rng = random.Random(16)
    frame, space = universes(m, n)
    _, lower, upper = valid_tables(m, n, rng)
    gap = flip([u & ~lo for lo, u in zip(lower, upper)], n, rng)
    report = check_ambiguity_axioms(SetValuedMap(frame, space, tuple(gap)))
    assert not report.ok
    assert_witnesses_hold(report, {"amb": gap}, space.full)
