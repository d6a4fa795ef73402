import inspect
import random
from fractions import Fraction

import pytest

from ambicalc import (
    BasicAssignment,
    BeliefReport,
    Frame,
    FrameMismatch,
    MassFunction,
    ProbabilityAssignment,
    SetValuedMap,
    SituationSpace,
    SpaceMismatch,
    ValidationError,
    belief_from_structure,
    check_belief_identity,
    fishburn_report,
    mass_from_structure,
    parse_rational,
    render_rational,
    structure_from_assignment,
    structure_from_mass,
)
from ambicalc.harness import GenConfig, gen_assignment, gen_probability
from ambicalc.numeric import as_numerators

THIRD = Fraction(1, 3)


def report_of(frame, bel, pl, alpha):
    """A ``BeliefReport`` of Fraction tables, over their least common denominator."""
    nums, den = as_numerators([*bel, *pl, *alpha])
    size = len(bel)
    return BeliefReport(frame, nums[:size], nums[size : 2 * size], nums[2 * size :], den)


def test_parse_and_render_rational():
    assert parse_rational("1/3") == THIRD
    assert parse_rational("2") == 2
    assert parse_rational(5) == 5
    assert render_rational(Fraction(2, 6)) == "1/3"
    assert render_rational(Fraction(4, 2)) == "2"
    # a trailing newline and non-ASCII digits would load but not render back
    for bad in (True, 0.5, "1/0", "0.5", "1 / 2", None, "1/2\n", "\u0661", "\uff11/2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_probability_validation():
    sp = SituationSpace(("w1", "w2"))
    p = ProbabilityAssignment(sp, (1, 2), 3)
    assert p.of(0b01) == THIRD
    assert p.of(0b11) == 1
    with pytest.raises(ValidationError, match="^weights sum to 2/3, not 1$"):
        ProbabilityAssignment(sp, (1, 1), 3)
    with pytest.raises(ValidationError, match="^weight of w1 is negative$"):
        ProbabilityAssignment(sp, (-1, 4), 3)
    with pytest.raises(ValidationError, match="^weight of w1 is not a rational$"):
        ProbabilityAssignment(sp, (0.5, 0.5), 1)  # floats are not exact
    with pytest.raises(ValidationError, match="^weight of w1 must be an integer numerator$"):
        ProbabilityAssignment(sp, (Fraction(1, 2), Fraction(1, 2)), 1)
    with pytest.raises(ValidationError):
        ProbabilityAssignment(sp, (1,), 1)  # wrong arity
    with pytest.raises(ValidationError, match="^the denominator must be a positive integer$"):
        ProbabilityAssignment(sp, (0, 0), 0)


def test_probability_from_integers():
    sp = SituationSpace(("w1", "w2", "w3"))
    p = ProbabilityAssignment.from_integers(sp, [2, 0, 2])
    assert p.weights == (Fraction(1, 2), 0, Fraction(1, 2))


def test_mass_validation():
    fr = Frame(("x", "y"))
    mass = MassFunction(fr, {3: 1, 1: 1, 2: 1}, 3)
    assert mass.focal_masks() == (1, 2, 3)
    assert dict(mass.masses)[3] == THIRD
    with pytest.raises(ValidationError, match="^the empty set cannot carry mass$"):
        MassFunction(fr, {0: 1}, 1)
    with pytest.raises(ValidationError, match="^mass of {x} must be a positive rational$"):
        MassFunction(fr, {1: 0, 3: 1}, 1)
    with pytest.raises(ValidationError, match="^mass of {x} must be a positive rational$"):
        MassFunction(fr, {1: 0.5, 3: 1}, 1)
    with pytest.raises(ValidationError, match="^mass of {x} must be an integer numerator$"):
        MassFunction(fr, {1: Fraction(1, 2), 3: Fraction(1, 2)}, 1)
    with pytest.raises(ValidationError, match="^masses sum to 1/3, not 1$"):
        MassFunction(fr, {1: 1}, 3)


def test_fix1_belief_values(fix1):
    rep = belief_from_structure(fix1["s"], fix1["p"])
    assert rep.bel == (0, THIRD, THIRD, 1)
    assert rep.pl == (0, Fraction(2, 3), Fraction(2, 3), 1)
    assert rep.alpha == (0, THIRD, THIRD, 0)


def test_fix1_mass(fix1):
    mass = mass_from_structure(fix1["s"], fix1["p"])
    assert dict(mass.masses) == {1: THIRD, 2: THIRD, 3: THIRD}
    rep = belief_from_structure(fix1["s"], fix1["p"])
    assert check_belief_identity(rep, mass).ok


def test_zero_weight_cells_are_dropped(fix1):
    p = ProbabilityAssignment.from_integers(fix1["space"], [1, 1, 0])
    mass = mass_from_structure(fix1["s"], p)
    assert mass.focal_masks() == (1, 2)  # the cell of {x,y} carries no weight
    rep = belief_from_structure(fix1["s"], p)
    assert check_belief_identity(rep, mass).ok


def test_identity_failure_witness(fix1):
    rep = belief_from_structure(fix1["s"], fix1["p"])
    vacuous_mass = MassFunction(fix1["frame"], {3: 1}, 1)
    out = check_belief_identity(rep, vacuous_mass)
    v = out.find("bel-mass-identity")
    assert not v.ok
    assert v.witness.subset_a == 1  # Bel({x})=1/3 but no mass below {x}


def test_belief_report_validation():
    fr = Frame(("x",))
    ok = BeliefReport(fr, (0, 1), (0, 1), (0, 0), 1)
    assert ok.alpha == (0, 0)
    with pytest.raises(ValidationError, match="^α must equal Pl − Bel at {x}$"):
        BeliefReport(fr, (0, 1), (0, 1), (0, 1), 1)
    with pytest.raises(ValidationError, match="^Bel\\(∅\\) and Pl\\(∅\\) must be 0$"):
        BeliefReport(fr, (1, 2), (1, 2), (0, 0), 2)
    fr2 = Frame(("x", "y"))
    with pytest.raises(ValidationError, match="^need 0 ≤ Bel ≤ Pl ≤ 1 at {x}$"):
        # Bel exceeds Pl on {x}
        BeliefReport(fr2, (0, 2, 0, 4), (0, 1, 2, 4), (0, -1, 2, 0), 4)


def test_space_mismatch(fix1):
    other = ProbabilityAssignment.from_integers(SituationSpace(("a", "b", "c")), [1, 1, 1])
    with pytest.raises(SpaceMismatch):
        belief_from_structure(fix1["s"], other)


def test_structure_from_mass_roundtrip(fix1):
    mass = mass_from_structure(fix1["s"], fix1["p"])
    space, prob, j, s = structure_from_mass(mass)
    assert space.names == ("w_x", "w_y", "w_x,y")
    assert prob.weights == (THIRD, THIRD, THIRD)
    assert (prob.numerators, prob.denominator) == ((1, 1, 1), 3)
    assert j.focal_masks() == (1, 2, 3)
    rep = belief_from_structure(s, prob)
    original = belief_from_structure(fix1["s"], fix1["p"])
    assert rep.bel == original.bel
    assert rep.pl == original.pl
    assert check_belief_identity(rep, mass).ok


def test_fishburn_fix1(fix1):
    rep = belief_from_structure(fix1["s"], fix1["p"])
    out = fishburn_report(rep)
    assert out.ok
    assert [v.axiom for v in out.verdicts] == ["α1", "α2", "α3", "α(Θ)=0"]


def test_fishburn_submodularity_violation():
    fr = Frame(("x", "y", "z"))
    # over the denominator 2: α is 1/2 on {x,y} and {z}
    bel = (0,) * 7 + (2,)
    pl = (0, 0, 0, 1, 1, 0, 0, 2)
    alpha = (0, 0, 0, 1, 1, 0, 0, 0)
    rep = BeliefReport(fr, bel, pl, alpha, 2)
    out = fishburn_report(rep)
    assert out.find("α1").ok
    assert out.find("α2").ok
    v = out.find("α3")
    assert not v.ok
    assert v.witness.key() == (1, 2, None)


def test_fishburn_symmetry_violation():
    fr = Frame(("x", "y"))
    out = fishburn_report(BeliefReport(fr, (0, 0, 0, 1), (0, 1, 0, 1), (0, 1, 0, 0), 1))
    assert not out.find("α2").ok
    assert out.find("α2").witness.subset_a == 1


def _naive_identity_verdicts(report, mass):
    """check_belief_identity's failures by per-subset Fraction sums."""
    fr = report.frame
    full = fr.full
    out = {}
    for a in range(1 << fr.m):
        total = sum((v for b, v in mass.masses if b & ~a == 0), Fraction(0))
        if total != report.bel[a]:
            out["bel-mass-identity"] = (
                a,
                f"A={fr.format_subset(a)}: Bel={report.bel[a]} but the subset masses sum to {total}",
            )
            break
    for a in range(1 << fr.m):
        if report.pl[a] != 1 - report.bel[full ^ a]:
            out["pl-complement"] = (
                a,
                f"A={fr.format_subset(a)}: Pl={report.pl[a]} but "
                f"1 − Bel(¬A) = {1 - report.bel[full ^ a]}",
            )
            break
    return out


def test_perturbed_report_fails_where_the_fraction_sums_fail():
    rng = random.Random(7)
    perturbed = 0
    for m, n in [(2, 3), (3, 5), (4, 8), (5, 10), (5, 3)] * 6:
        cfg = GenConfig(m=m, n=n, seed=rng.randrange(1 << 30))
        s = structure_from_assignment(gen_assignment(cfg))
        p = gen_probability(cfg)
        rep = belief_from_structure(s, p)
        mass = mass_from_structure(s, p)
        assert check_belief_identity(rep, mass).ok
        assert _naive_identity_verdicts(rep, mass) == {}
        gaps = [a for a in range(1 << m) if rep.alpha[a]]
        if not gaps:
            continue
        # move Bel(A) halfway up to Pl(A): still a valid report, but no
        # longer the subset-mass sum
        a = rng.choice(gaps)
        eps = rep.alpha[a] / 2
        bel, alpha = list(rep.bel), list(rep.alpha)
        bel[a] += eps
        alpha[a] -= eps
        bad = report_of(rep.frame, bel, rep.pl, alpha)
        out = check_belief_identity(bad, mass)
        naive = _naive_identity_verdicts(bad, mass)
        assert set(naive) == {"bel-mass-identity", "pl-complement"}
        assert [v.axiom for v in out.verdicts if not v.ok] == list(naive)
        for axiom, (subset, detail) in naive.items():
            w = out.find(axiom).witness
            assert (w.subset_a, w.detail) == (subset, detail)
        assert naive["bel-mass-identity"][0] == a
        perturbed += 1
    assert perturbed >= 20


def test_from_mass_refuses_more_focal_elements_than_the_situation_cap():
    fr = Frame(tuple(f"x{k}" for k in range(7)))
    mass = MassFunction(fr, dict.fromkeys(range(1, 71), 1), 70)
    with pytest.raises(ValidationError, match="70 focal elements.*cap is 64"):
        structure_from_mass(mass)
    at_cap = MassFunction(fr, dict.fromkeys(range(1, 65), 1), 64)
    space, prob, _, s = structure_from_mass(at_cap)
    assert space.n == SituationSpace.MAX_SITUATIONS
    assert check_belief_identity(belief_from_structure(s, prob), at_cap).ok


def test_probability_keeps_integer_numerators_over_one_denominator():
    sp = SituationSpace(("w1", "w2", "w3"))
    p = ProbabilityAssignment(sp, (2, 0, 10), 12)  # kept in lowest terms
    assert p.denominator == 6
    assert p.numerators == (1, 0, 5)
    assert p.weights == (Fraction(1, 6), 0, Fraction(5, 6))
    for mask in range(8):
        assert Fraction(p._scaled_of(mask), p.denominator) == p.of(mask)
    # more than eight situations: one lookup table per chunk of eight
    rng = random.Random(3)
    wide = SituationSpace(tuple(f"w{k}" for k in range(20)))
    p = ProbabilityAssignment.from_integers(wide, [rng.randint(0, 9) for _ in range(19)] + [1])
    for mask in [0, wide.full, *(rng.randrange(1 << 20) for _ in range(200))]:
        assert Fraction(p._scaled_of(mask), p.denominator) == p.of(mask)


def test_probability_keeps_its_weights_as_a_tuple():
    p = ProbabilityAssignment(SituationSpace(("w1", "w2")), [1, 1], 2)
    assert p.numerators == (1, 1)
    assert p.weights == (Fraction(1, 2), Fraction(1, 2))


def test_the_bridge_needs_one_space_and_one_frame(fix1):
    other = ProbabilityAssignment.from_integers(SituationSpace(("a", "b", "c")), [1, 1, 1])
    with pytest.raises(SpaceMismatch, match="^structure and probability use different spaces$"):
        mass_from_structure(fix1["s"], other)
    beliefs = belief_from_structure(fix1["s"], fix1["p"])
    mass = MassFunction(Frame(("p", "q")), {0b11: 1}, 1)
    with pytest.raises(FrameMismatch, match="^report and mass function use different frames$"):
        check_belief_identity(beliefs, mass)


def test_belief_report_rows_outside_the_subset_loop():
    fr = Frame(("x",))
    with pytest.raises(ValidationError, match="^tables must cover every subset of the frame$"):
        BeliefReport(fr, (0,), (0,), (0,), 1)
    with pytest.raises(ValidationError, match="^Bel\\(Θ\\) and Pl\\(Θ\\) must be 1$"):
        BeliefReport(fr, (0, 1), (0, 1), (0, 0), 2)
    with pytest.raises(ValidationError, match="^the denominator must be a positive integer$"):
        BeliefReport(fr, (0, 0), (0, 0), (0, 0), 0)


def test_tables_are_kept_in_lowest_terms_so_equal_values_have_equal_integers():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    j = BasicAssignment(SetValuedMap(fr, sp, (0, 0b011, 0b100, 0)))
    s = structure_from_assignment(j)
    p = ProbabilityAssignment.from_integers(sp, [1, 1, 2])
    assert (p.numerators, p.denominator) == ((1, 1, 2), 4)
    rep = belief_from_structure(s, p)
    # every cell carries 2/4: the tables reduce to the denominator 2
    assert (rep.bel_num, rep.pl_num, rep.alpha_num, rep.denominator) == (
        (0, 1, 1, 2), (0, 1, 1, 2), (0, 0, 0, 0), 2
    )
    mass = mass_from_structure(s, p)
    assert (mass.numerators, mass.denominator) == (((1, 1), (2, 1)), 2)
    _, prob2, _, s2 = structure_from_mass(mass)
    rep2 = belief_from_structure(s2, prob2)
    assert (rep2.denominator, rep2.bel_num, rep2.pl_num) == (
        rep.denominator, rep.bel_num, rep.pl_num
    )
    assert MassFunction(fr, {1: 3, 2: 3}, 6) == mass
    assert BeliefReport(fr, (0, 2, 2, 4), (0, 2, 2, 4), (0, 0, 0, 0), 4) == rep


def test_views_build_each_distinct_value_once(fix1):
    rep = belief_from_structure(fix1["s"], fix1["p"])
    assert rep.bel == (0, THIRD, THIRD, 1)
    assert rep.bel is rep.bel  # cached
    assert rep.bel[1] is rep.alpha[1]
    assert rep.bel[0] is rep.pl[0] is rep.alpha[3]
    p = fix1["p"]
    assert p.weights[0] is p.weights[1] is p.weights[2]


def test_the_bridge_builds_no_fraction():
    """Fractions come only from the views, the texts, parsing and rendering."""
    for func in (belief_from_structure, mass_from_structure, check_belief_identity,
                 structure_from_mass, fishburn_report):
        assert "Fraction(" not in inspect.getsource(func), func.__name__
