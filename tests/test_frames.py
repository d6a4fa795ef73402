import pytest

from ambicalc import (
    DuplicateElement,
    Frame,
    MaskOutOfRange,
    SituationSpace,
    UnknownElement,
)


def test_frame_basics():
    fr = Frame(("x", "y", "z"))
    assert fr.m == 3
    assert fr.atoms == ("x", "y", "z")
    assert fr.full == 0b111
    assert fr.encode(["x", "z"]) == 0b101
    assert fr.decode(0b101) == ("x", "z")
    assert fr.index_of("y") == 1
    assert fr.subset_key(0b101) == "x,z"
    assert fr.subset_key(0) == ""
    assert fr.format_subset(0) == "∅"
    assert fr.format_subset(0b11) == "{x,y}"


def test_space_basics():
    sp = SituationSpace(("w1", "w2"))
    assert sp.n == 2
    assert sp.names == ("w1", "w2")
    assert sp.full ^ 0b01 == 0b10
    assert sp.encode(["w2"]) == 0b10
    assert sp.decode(0b11) == ("w1", "w2")


def test_construction_errors():
    with pytest.raises(ValueError):
        Frame(())
    with pytest.raises(DuplicateElement):
        Frame(("x", "x"))
    with pytest.raises(ValueError):
        Frame(("a,b",))  # commas collide with subset keys
    with pytest.raises(ValueError):
        Frame([f"a{k}" for k in range(17)])
    SituationSpace([f"w{k}" for k in range(SituationSpace.MAX_SITUATIONS)])
    with pytest.raises(ValueError):
        SituationSpace([f"w{k}" for k in range(SituationSpace.MAX_SITUATIONS + 1)])


def test_mask_and_name_errors():
    fr = Frame(("x", "y"))
    with pytest.raises(MaskOutOfRange):
        fr.check_mask(4)
    with pytest.raises(MaskOutOfRange):
        fr.decode(-1)
    with pytest.raises(UnknownElement):
        fr.encode(["q"])
    with pytest.raises(DuplicateElement):
        fr.encode(["x", "x"])
    with pytest.raises(UnknownElement):
        fr.index_of("q")


def test_equality_compares_kind_and_names():
    assert SituationSpace(("w",)) == SituationSpace(("w",))
    assert Frame(("x",)) != SituationSpace(("x",))


def test_boolean_algebra_laws_exhaustive():
    fr = Frame(("a", "b", "c", "d"))
    full = fr.full
    for x in range(1 << fr.m):
        for y in range(1 << fr.m):
            # De Morgan both ways
            assert full ^ (x | y) == (full ^ x) & (full ^ y)
            assert full ^ (x & y) == (full ^ x) | (full ^ y)


def test_encode_takes_any_iterable_of_names():
    fr = Frame(("x", "y", "z"))
    assert fr.encode(name for name in ("z", "x")) == 0b101
    with pytest.raises(DuplicateElement):
        fr.encode(iter(["x", "x"]))
    with pytest.raises(UnknownElement):
        fr.encode({"q"})


def test_universes_hash_and_print_by_kind_and_names():
    assert hash(Frame(("x", "y"))) == hash(Frame(("x", "y")))
    assert len({Frame(("x",)), Frame(("x",)), SituationSpace(("x",))}) == 2
    assert repr(Frame(("x", "y"))) == "Frame(['x', 'y'])"
    assert repr(SituationSpace(("w1",))) == "SituationSpace(['w1'])"
