import pytest

from ambicalc import (
    AmbiguityMap,
    AssignmentAxiomViolation,
    BasicAssignment,
    DualityViolation,
    Frame,
    FrameMismatch,
    IncidenceMap,
    IntervalStructure,
    MaskOutOfRange,
    PointMap,
    SetValuedMap,
    SituationSpace,
    SpaceMismatch,
    UpperAxiomViolation,
    check_assignment,
    check_duality,
    check_lower_axioms,
    check_structure,
    check_upper_axioms,
    dual_map,
    extract_assignment,
    lower_table_from_cells,
    make_interval_structure,
    structure_from_assignment,
)
from ambicalc.documents import dumps, loads


def test_setvaluedmap_validation():
    fr = Frame(("x",))
    sp = SituationSpace(("w",))
    with pytest.raises(ValueError):
        SetValuedMap(fr, sp, (0,))  # wrong length
    with pytest.raises(MaskOutOfRange):
        SetValuedMap(fr, sp, (0, 2))  # image exceeds the space
    m = SetValuedMap(fr, sp, [0, 1])
    assert m.table == (0, 1)
    assert m[1] == 1


def test_fix1_tables(fix1):
    s = fix1["s"]
    assert s.lower.table == (0, 0b001, 0b010, 0b111)
    assert s.upper.table == (0, 0b101, 0b110, 0b111)
    assert check_structure(s.lower, s.upper).ok
    assert check_upper_axioms(s.upper).ok
    assert check_lower_axioms(s.lower).ok
    assert check_duality(s.lower, s.upper).ok


def test_vacuous_structure(fix3):
    s = fix3["s"]
    assert s.lower.table == (0, 0, 0, 0b111)
    assert s.upper.table == (0, 0b111, 0b111, 0b111)
    assert check_structure(s.lower, s.upper).ok


def test_dual_involution(fix1):
    up = fix1["s"].upper
    assert dual_map(dual_map(up)).table == up.table
    assert dual_map(up).table == fix1["s"].lower.table


def test_upper_axiom_failures():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    # breaking the top entry breaks both normalization and additivity
    broken = SetValuedMap(fr, sp, (0, 0b101, 0b110, 0b101))
    rep = check_upper_axioms(broken)
    assert not rep.ok
    assert rep.find("f̄2").witness.subset_a == 3
    assert rep.find("f̄3").witness.key() == (1, 2, None)
    bad_empty = SetValuedMap(fr, sp, (1, 0b101, 0b110, 0b111))
    assert check_upper_axioms(bad_empty).find("f̄1").witness.subset_a == 0


def test_make_interval_structure_errors(fix1):
    fr, sp = fix1["frame"], fix1["space"]
    s = fix1["s"]
    rebuilt = make_interval_structure(s.lower, s.upper)
    assert rebuilt == s
    broken_upper = SetValuedMap(fr, sp, (0, 0b101, 0b110, 0b101))
    with pytest.raises(UpperAxiomViolation):
        make_interval_structure(s.lower, broken_upper)
    broken_lower = SetValuedMap(fr, sp, (0, 0b011, 0b010, 0b111))
    with pytest.raises(DualityViolation):
        make_interval_structure(broken_lower, s.upper)


def test_universe_mismatch(fix1):
    other = SetValuedMap(Frame(("p", "q")), fix1["space"], fix1["s"].lower.table)
    with pytest.raises(FrameMismatch):
        make_interval_structure(other, fix1["s"].upper)


def test_check_assignment_witnesses():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    good = check_assignment(SetValuedMap(fr, sp, (0, 1, 2, 4)))
    assert good.ok
    j1 = check_assignment(SetValuedMap(fr, sp, (1, 0, 2, 4)))
    assert j1.find("j1").witness.subset_a == 0
    # w3 is in no cell: the lowest uncovered situation is the witness
    j2 = check_assignment(SetValuedMap(fr, sp, (0, 1, 2, 0)))
    assert not j2.find("j2").ok
    assert j2.find("j2").witness.situation == 2
    j3 = check_assignment(SetValuedMap(fr, sp, (0, 3, 2, 4)))
    assert not j3.find("j3").ok
    assert j3.find("j3").witness.key() == (1, 2, None)


def test_extract_and_reconstruct(fix1, fix3):
    for fx in (fix1, fix3):
        j = fx["j"]
        s = fx["s"]
        assert extract_assignment(s) == j
        assert lower_table_from_cells(j.map.table) == s.lower.table


def test_structure_from_assignment_rejects_bad_cells():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2"))
    bad = BasicAssignment(SetValuedMap(fr, sp, (0, 3, 1, 0)))
    with pytest.raises(AssignmentAxiomViolation):
        structure_from_assignment(bad)


def test_focal_masks(fix1, fix3):
    assert fix1["j"].focal_masks() == (1, 2, 3)
    assert fix3["j"].focal_masks() == (3,)


def test_map_backed_kinds_stay_distinct():
    fr, sp = Frame(("x",)), SituationSpace(("w",))
    m = SetValuedMap(fr, sp, (0, 1))
    objs = [BasicAssignment(m), AmbiguityMap(m), IncidenceMap(m, PointMap((0,)))]
    for k, obj in enumerate(objs):
        assert (obj.frame, obj.space) == (fr, sp)
        assert [obj == other for other in objs] == [j == k for j in range(3)]
        assert loads(dumps(obj)) == (["assignment", "ambiguity", "incidence"][k], obj)
    assert repr(objs[1]) == f"AmbiguityMap(map={m!r})"
    assert repr(objs[2]) == f"IncidenceMap(map={m!r}, origin=PointMap(targets=(0,)))"


def test_raw_structure_container_is_unchecked(fix1):
    # the plain dataclass accepts garbage; only make_interval_structure gates
    s = IntervalStructure(fix1["s"].upper, fix1["s"].lower)
    assert not check_structure(s.lower, s.upper).ok


def test_maps_over_different_spaces_are_a_space_mismatch(fix1):
    other = SetValuedMap(fix1["frame"], SituationSpace(("a", "b", "c")), fix1["s"].lower.table)
    for build in (make_interval_structure, check_structure):
        with pytest.raises(SpaceMismatch, match="^lower/upper maps use different spaces$"):
            build(other, fix1["s"].upper)


def test_find_names_an_axiom_the_report_lacks():
    report = check_assignment(SetValuedMap(Frame(("x",)), SituationSpace(("w1",)), (0, 1)))
    assert report.find("j2").ok
    with pytest.raises(KeyError):
        report.find("f1")
