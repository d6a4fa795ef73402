"""The exact pair-axiom tests and the witness scans against the ascending
pair walks and the oracle.

Each ``*_failure`` test in ``ambicalc.sweeps`` decides a pair axiom from a
local condition.  Here every 1-situation table of a small frame is run
through both the test and the full scan, seeded multi-situation tables at
m ∈ {6, 8} through the checkers and the oracle, and tables at m ∈ {9, 12, 16},
where the oracle is out of reach, through the checkers alone, with every
reported witness re-verified from the axiom's formula.  Small tables lifted
to m ∈ {9, 12} carry their scanned a3.1/a3.2 verdicts with them.  The
``first_*_violation`` scans, which search situation families, must name the
same pair as the O(4^m) ascending walks kept here as the reference.
"""

import random
from functools import reduce
from itertools import product
from operator import add, or_, xor

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
    _holding,
    _pack,
    _sublattice_failure,
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
    joins,
    mixed_inter_failure,
    mixed_union_failure,
    monotone_failure,
    overlap_failure,
    smallest_witness,
    split_form_misses,
    submodular_failure,
    union_hom_failure,
    zeta,
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


def ascending_walk(violated):
    """The reference scan: the first (A, B), A <= B, in ascending order for
    which ``violated(*tables, A, B)`` holds, found by walking every pair."""

    def walk(*tables):
        size = len(tables[0])
        for a in range(size):
            for b in range(a, size):
                if violated(*tables, a, b):
                    return a, b
        return None

    return walk


# (local test, family scan, formula) of each set-valued pair axiom on one
# table, and the same for compatibility on an (amb, inc) pair
TABLE_SCANS = {
    "f̄3": (union_hom_failure, first_union_hom_violation, UNION_HOM),
    "f3": (inter_hom_failure, first_inter_hom_violation, INTER_HOM),
    "f̄4": (monotone_failure, first_inter_bound_violation, INTER_BOUND),
    "f4": (monotone_failure, first_union_bound_violation, UNION_BOUND),
    "a3.1": (lambda t: mixed_union_failure(t, split_form_misses(t)), first_mixed_union_violation, MIXED_UNION),
    "a3.2": (lambda t: mixed_inter_failure(t, split_form_misses(t)), first_mixed_inter_violation, MIXED_INTER),
}
COMPAT_SCAN = (compat_failure, first_compat_violation, compat_violated)


def assert_same_witness(axiom, scans, *tables):
    """The local test fails exactly when the reference walk finds a pair,
    with a pair that violates the axiom, and the family scan names the
    walk's pair: called directly, and as a checker calls it, on the tables
    cut down to the situations the test reports."""
    test, scan, formula = scans
    expected = ascending_walk(formula)(*tables)
    assert scan(*tables, len(tables[0]), None) == expected, (axiom, tables)
    fault = test(*tables)
    assert (fault is None) == (expected is None), (axiom, tables)
    if fault is None:
        return
    assert formula(*tables, *fault[0]), (axiom, tables)
    if fault[1] is not None and any(cell & ~fault[1] for t in tables for cell in t):
        assert smallest_witness(fault, scan, *tables) == expected, (axiom, tables)


def one_situation_tables(m):
    size = 1 << m
    for bits in range(1 << size):
        yield tuple(bits >> a & 1 for a in range(size))


def pair_of(fault):
    """The pair of a set-valued test's result, or None on a pass."""
    return fault and fault[0]


def agrees(test, scan, formula, t):
    """The test and the full scan agree on the verdict, and a failure's pair
    really violates the axiom."""
    local = test(t)
    if (local is None) != (scan(t, len(t), None) is None):
        return False
    return local is None or formula(t, *local)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exact_tests_match_the_scans_on_every_one_situation_table(m):
    overlap = lambda t: pair_of(overlap_failure(t))
    for t in one_situation_tables(m):
        for axiom, scans in TABLE_SCANS.items():
            assert_same_witness(axiom, scans, t)
        assert agrees(overlap, first_overlap_violation, OVERLAP, t), t


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
                (lambda t: mixed_union_failure(t, split_form_misses(t)), first_mixed_union_violation, MIXED_UNION),
                (lambda t: mixed_inter_failure(t, split_form_misses(t)), first_mixed_inter_violation, MIXED_INTER),
            ):
                hit = pair_of(test(t))
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
        assert_same_witness("compatibility", COMPAT_SCAN, amb, inc)


def test_compat_test_matches_the_scan_at_four_atoms():
    """Every 1-situation ambiguity table against the incidence map of the
    point map onto x1; relabeling the atoms carries these pairs onto those of
    every other point map."""
    inc = tuple(a & 1 for a in range(16))
    for amb in one_situation_tables(4):
        assert_same_witness("compatibility", COMPAT_SCAN, amb, inc)


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


@pytest.mark.parametrize("m", [6, 8])
@pytest.mark.parametrize("n", [1, 10, 64])
def test_family_scans_name_the_smallest_pair_on_seeded_faults(m, n):
    """Valid lower, upper, gap and incidence tables with 0 to 3 flipped bits."""
    rng = random.Random(f"{m}/{n}")
    for flips in (0, 1, 2, 3):
        _, lower, upper = valid_tables(m, n, rng)
        gap = [u & ~lo for lo, u in zip(lower, upper)]
        inc = incidence_from_pointmap(
            PointMap(tuple(rng.randrange(m) for _ in range(n))), *universes(m, n)
        ).map.table
        bad = {}
        for name, table in (("lower", lower), ("upper", upper), ("amb", gap), ("inc", inc)):
            bad[name] = table
            for _ in range(flips):
                bad[name] = flip(bad[name], n, rng)
        for axiom, scans in TABLE_SCANS.items():
            assert_same_witness(axiom, scans, bad[PAIR_FORMULAS[axiom][0]])
        for axiom in ("f̄3", "f3"):
            assert_same_witness(axiom, TABLE_SCANS[axiom], bad["inc"])
        assert_same_witness("compatibility", COMPAT_SCAN, gap, bad["inc"])
        assert_same_witness("compatibility", COMPAT_SCAN, bad["amb"], inc)


def failing_situations(violated, n, *tables):
    """The situations ω whose one-situation projection of ``tables`` fails
    the reference walk: where the axiom fails."""
    walk = ascending_walk(violated)
    return sum(
        1 << w for w in range(n) if walk(*([cell >> w & 1 for cell in t] for t in tables))
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_each_test_returns_every_situation_where_its_axiom_fails(m):
    """What the cut before a scan relies on.  Seeded tables of every kind
    with 2 to 6 situations, valid and with 1 to 3 flipped bits: a failing
    test returns the situations where its axiom fails, and a3.1 those where
    the split form fails, which hold them."""
    rng = random.Random(f"situations/{m}")
    for n in range(2, 7):
        for flips in (0, 1, 2, 3):
            cells, lower, upper = valid_tables(m, n, rng)
            gap = [u & ~lo for lo, u in zip(lower, upper)]
            inc = incidence_from_pointmap(
                PointMap(tuple(rng.randrange(m) for _ in range(n))), *universes(m, n)
            ).map.table
            tables = [cells, lower, upper, gap, inc]
            for k in range(len(tables)):
                for _ in range(flips):
                    tables[k] = flip(tables[k], n, rng)
            cases = [
                (axiom, test, formula, (t,))
                for axiom, (test, _, formula) in TABLE_SCANS.items()
                for t in tables
            ]
            cases += [("j3", overlap_failure, OVERLAP, (t,)) for t in tables]
            cases += [
                ("compatibility", compat_failure, compat_violated, pair)
                for pair in ((tables[3], inc), (gap, tables[4]))
            ]
            for axiom, test, formula, args in cases:
                fault = test(*args)
                expected = failing_situations(formula, n, *args)
                assert (fault is None) == (expected == 0), (axiom, args)
                if fault is None:
                    continue
                if axiom == "a3.1":
                    assert fault[1] == split_form_misses(*args), args
                    assert fault[1] & expected == expected, args
                else:
                    assert fault[1] == expected, (axiom, args)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_monotone_failure_names_the_lowest_local_failure(m):
    """The pair (A−x, A) at the lowest A with some t(A−x) ⊄ t(A), x its
    lowest such atom: the f̄4/f4 witness reported above eight atoms."""
    atoms = [1 << k for k in range(m)]
    for t in one_situation_tables(m):
        expected = next(
            ((a ^ x, a) for a in range(len(t)) for x in atoms if a & x and t[a ^ x] & ~t[a]),
            None,
        )
        assert pair_of(monotone_failure(t)) == expected, t


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_family_scans_name_the_smallest_pair_on_random_tables(m):
    """Random tables, 100 situations wide too: more than 8 bytes a slot."""
    rng = random.Random(m)
    for n in (1, 3, 64, 100):
        for _ in range(4):
            t = [rng.getrandbits(n) for _ in range(1 << m)]
            for axiom, scans in TABLE_SCANS.items():
                assert_same_witness(axiom, scans, t)
            inc = [rng.getrandbits(n) for _ in range(1 << m)]
            assert_same_witness("compatibility", COMPAT_SCAN, t, inc)


@pytest.mark.parametrize("size", [1, 1023, 1024, 3000, 1 << 12])
def test_chunked_packing_equals_one_join(size):
    """``_pack`` fills one buffer chunk by chunk; the int must be the one
    that joining every cell's bytes at once gives, also with the situations
    starting above 0 and slots wider than 8 bytes."""
    rng = random.Random(size)
    for n, low in ((8, 0), (64, 5), (100, 3), (200, 71)):
        t = [rng.getrandbits(n) << low for _ in range(size)]
        width = -(-n // 8)
        raw = b"".join(int.to_bytes(cell >> low, width, "little") for cell in t)
        assert _pack(t, low, width) == int.from_bytes(raw, "little")
        assert _pack(tuple(t), low, width) == int.from_bytes(raw, "little")


@pytest.mark.parametrize("op", [or_, add, xor])
def test_zeta_is_op_over_every_subset(op):
    """Entry A of ``zeta`` is ``op`` over the entries at every B ⊆ A, by
    enumeration on seeded tables at m = 1–6 and on one-entry tables (m = 0)."""
    rng = random.Random(41)
    for m in range(7):
        size = 1 << m
        for _ in range(5):
            t = [rng.getrandbits(16) for _ in range(size)]
            subsets = [[b for b in range(size) if not b & ~a] for a in range(size)]
            assert zeta(t, op) == [reduce(op, (t[b] for b in bs)) for bs in subsets]
    assert zeta(t) == zeta(t, or_)


@pytest.mark.parametrize("op", [or_, add])
def test_joins_is_op_over_every_atom(op):
    """Entry A of ``joins`` is ``op`` over the singles of A's atoms, 0 at ∅,
    by enumeration on seeded singles at m = 1–6 and on no singles."""
    rng = random.Random(43)
    for m in range(1, 7):
        for _ in range(5):
            singles = [rng.getrandbits(16) for _ in range(m)]
            want = [
                reduce(op, (singles[x] for x in range(m) if a >> x & 1), 0)
                for a in range(1 << m)
            ]
            assert joins(singles, op) == want
    assert joins([], op) == [0]
    assert joins(singles) == joins(singles, or_)


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
    def prob(mask):
        return sum(wt for k, wt in enumerate(weights) if mask >> k & 1)

    bel = tuple(prob(lo) for lo in lower)
    pl = tuple(prob(up) for up in upper)
    return BeliefReport(frame, bel, pl, tuple(p - b for b, p in zip(bel, pl)), sum(weights))


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
    # over the denominator 2
    alpha = [0] * size
    alpha[0b11] = alpha[full ^ 0b11] = 1
    bel = [0] * full + [2]
    pl = [b + x for b, x in zip(bel, alpha)]
    report = fishburn_report(BeliefReport(frame, tuple(bel), tuple(pl), tuple(alpha), 2))
    assert [v.axiom for v in report.verdicts if not v.ok] == ["α3"]
    assert_witnesses_hold(report, {"alpha": alpha}, 0)


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


def _closed(family: int) -> bool:
    members = [a for a in range(family.bit_length()) if family >> a & 1]
    return all(family >> (a | b) & 1 and family >> (a & b) & 1 for a in members for b in members)


def _near_sublattices(rng: random.Random, m: int):
    """Random families at m atoms: half of them dense noise, half the
    closure under ∪ and ∩ of a few random subsets with up to two members
    toggled, so that both verdicts occur."""
    size = 1 << m
    while True:
        yield rng.getrandbits(size)
        family = 0
        for _ in range(rng.randint(1, 4)):
            family |= 1 << rng.randrange(size)
        grown = True
        while grown:
            members = [a for a in range(size) if family >> a & 1]
            more = family
            for a in members:
                for b in members:
                    more |= 1 << (a | b) | 1 << (a & b)
            grown, family = more != family, more
        for _ in range(rng.randrange(3)):
            family ^= 1 << rng.randrange(size)
        yield family


def test_sublattice_failure_names_two_members_that_leave_the_family():
    """Every family at m <= 3 and 2,000 seeded ones at m = 4-5, against the
    brute-force closure test."""
    rng = random.Random(31)
    cases = [(m, family) for m in (1, 2, 3) for family in range(1 << (1 << m))]
    for m in (4, 5):
        draws = _near_sublattices(rng, m)
        cases += [(m, next(draws)) for _ in range(1000)]
    verdicts = set()
    for m, family in cases:
        hit = _sublattice_failure(family, list(_holding(m, 1)))
        verdicts.add(hit is None)
        if _closed(family):
            assert hit is None, (m, family)
            continue
        a, b = hit
        assert family >> a & 1 and family >> b & 1, (m, family, hit)
        assert not (family >> (a & b) & 1 and family >> (a | b) & 1), (m, family, hit)
    assert verdicts == {True, False}
