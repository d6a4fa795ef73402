import json

import pytest

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    IncidenceMap,
    IntervalStructure,
    MassFunction,
    ParseError,
    ProbabilityAssignment,
    SchemaError,
    ValidationError,
    ambiguity_from_interval,
    decompose_interval,
    mass_from_structure,
)
from ambicalc.documents import (
    document_for,
    dumps,
    load_object,
    loads,
    parse_document,
    render_document,
)


def test_assignment_roundtrip(fix1):
    text = dumps(fix1["j"])
    kind, obj = loads(text)
    assert kind == "assignment"
    assert obj == fix1["j"]
    assert dumps(obj) == text


def test_all_kinds_roundtrip(fix1):
    inc, amb = decompose_interval(fix1["s"])
    mass = mass_from_structure(fix1["s"], fix1["p"])
    for obj, expected in [
        (fix1["j"], BasicAssignment),
        (fix1["s"], IntervalStructure),
        (amb, AmbiguityMap),
        (inc, IncidenceMap),
        (fix1["p"], ProbabilityAssignment),
        (mass, MassFunction),
    ]:
        kind, back = loads(dumps(obj))
        assert isinstance(back, expected)
        assert back == obj


def test_compact_mode(fix1):
    compact = dumps(fix1["j"], compact=True)
    assert "\n" not in compact
    assert loads(compact)[1] == fix1["j"]


def test_canonical_body_ordering(fix1):
    doc = document_for(fix1["s"])
    assert list(doc) == ["kind", "atoms", "situations", "body"]
    assert list(doc["body"]) == ["lower", "upper"]
    assert list(doc["body"]["upper"]) == ["x", "y", "x,y"]


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_document('{"kind": "mass", "kind": "mass", "atoms": ["x"], "body": {}}')


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_document('{"kind": "mass",\n  "atoms": [}')
    assert err.value.line == 2


def test_non_canonical_subset_key(fix1):
    doc = document_for(fix1["j"])
    body = dict(doc["body"])
    body["y,x"] = body.pop("x,y")
    doc = dict(doc, body=body)
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def test_unknown_names_are_schema_errors(fix1):
    doc = document_for(fix1["j"])
    bad_atom = dict(doc, body={"q": ["w1"]})
    with pytest.raises(SchemaError):
        loads(json.dumps(bad_atom))
    bad_sit = dict(doc, body={"x": ["nope"]})
    with pytest.raises(SchemaError):
        loads(json.dumps(bad_sit))


def test_field_structure_is_strict(fix1):
    doc = document_for(fix1["j"])
    with pytest.raises(SchemaError):
        loads(json.dumps(dict(doc, extra=1)))
    missing = {k: v for k, v in doc.items() if k != "situations"}
    with pytest.raises(SchemaError):
        loads(json.dumps(missing))
    with pytest.raises(SchemaError):
        loads(json.dumps(dict(doc, kind="mystery")))
    with pytest.raises(SchemaError):
        loads(json.dumps(["not", "an", "object"]))


def test_interval_body_needs_both_maps(fix1):
    doc = document_for(fix1["s"])
    with pytest.raises(SchemaError):
        loads(json.dumps(dict(doc, body={"lower": doc["body"]["lower"]})))


def test_probability_validation_via_document():
    text = json.dumps(
        {"kind": "probability", "situations": ["w1", "w2"], "body": {"w1": "1", "w2": "1"}}
    )
    with pytest.raises(ValidationError):
        loads(text)
    bad_literal = json.dumps(
        {"kind": "probability", "situations": ["w1"], "body": {"w1": "0.5"}}
    )
    with pytest.raises(SchemaError):
        loads(bad_literal)


def test_probability_omits_zero_weights():
    doc = {"kind": "probability", "situations": ["w1", "w2"], "body": {"w2": "1"}}
    _, p = loads(json.dumps(doc))
    assert p.weights == (0, 1)
    assert document_for(p)["body"] == {"w2": "1"}


def test_mass_validation_via_document():
    with pytest.raises(ValidationError):
        loads(json.dumps({"kind": "mass", "atoms": ["x"], "body": {"": "1"}}))
    with pytest.raises(ValidationError):
        loads(json.dumps({"kind": "mass", "atoms": ["x"], "body": {"x": "1/2"}}))


def test_incidence_document_requires_total_pointmap(fix2):
    doc = document_for(fix2["inc"])
    assert doc["body"] == {"w1": "x", "w2": "z"}
    partial = dict(doc, body={"w1": "x"})
    with pytest.raises(SchemaError):
        loads(json.dumps(partial))
    stray = dict(doc, body={"w1": "x", "w2": "z", "w9": "x"})
    with pytest.raises(SchemaError):
        loads(json.dumps(stray))


def test_ambiguity_document_roundtrip(fix2):
    text = dumps(fix2["amb"])
    kind, obj = loads(text)
    assert kind == "ambiguity"
    assert obj == fix2["amb"]


def test_fixture_files_are_canonical():
    from pathlib import Path

    fixture_dir = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixture_dir.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        _, obj = loads(text)
        assert dumps(obj) == text, path.name


def test_render_document_trailing_newline(fix1):
    text = render_document(document_for(fix1["j"]))
    assert text.endswith("}\n")


# --- bad subset keys and images: the same error class and text in every map body

BAD_KEYS = [
    (",x1", SchemaError, "unknown element ''"),
    ("x1,", SchemaError, "unknown element ''"),
    ("x2,x1", ParseError, "subset key 'x2,x1' is not in canonical atom order"),
    ("x1,x1", ParseError, "subset key 'x1,x1' is not in canonical atom order"),
    ("x1,,x2", SchemaError, "unknown element ''"),
    ("x1,x4", SchemaError, "unknown element 'x4'"),
]
BAD_IMAGES = [
    ("w1", "image of 'x1,x3' must be a list of situation names"),
    ({"w1": 1}, "image of 'x1,x3' must be a list of situation names"),
    (["w9"], "unknown element 'w9'"),
    (["w1", "w1"], "element 'w1' listed twice"),
    ([["w1"]], "unknown element ['w1']"),
    ([1], "unknown element 1"),
]
PLACES = ["assignment", "lower", "upper", "ambiguity"]


def body_document(place, key, image):
    """A document whose ``place`` body holds ∅, x1, x2 and x1,x2 (so that a
    bad key can extend a key already read), then ``key`` with ``image``."""
    body = {"": ["w1"], "x1": ["w1"], "x2": ["w2"], "x1,x2": ["w1"], key: image}
    head = {"atoms": ["x1", "x2", "x3"], "situations": ["w1", "w2"]}
    if place in ("assignment", "ambiguity"):
        return json.dumps({"kind": place, **head, "body": body})
    maps = {"lower": {}, "upper": {}}
    maps[place] = body
    return json.dumps({"kind": "interval", **head, "body": maps})


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("key, error, text", BAD_KEYS)
def test_bad_subset_keys_are_named(place, key, error, text):
    with pytest.raises(error) as err:
        loads(body_document(place, key, ["w1"]))
    assert type(err.value) is error
    assert str(err.value) == text


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("image, text", BAD_IMAGES)
def test_bad_images_are_named(place, image, text):
    with pytest.raises(SchemaError) as err:
        loads(body_document(place, "x1,x3", image))
    assert type(err.value) is SchemaError
    assert str(err.value) == text


def test_keys_in_any_order_parse_to_the_same_table(fix1):
    doc = document_for(fix1["j"])
    shuffled = dict(doc, body=dict(reversed(list(doc["body"].items()))))
    assert loads(json.dumps(shuffled))[1] == fix1["j"]


def test_guards_that_json_text_cannot_reach():
    # parse_document rejects an unknown kind before load_object sees it
    with pytest.raises(SchemaError, match="^unknown document kind: 'bogus'$"):
        load_object({"kind": "bogus"})
    # JSON object keys are always strings
    with pytest.raises(SchemaError, match="^subset key must be a string, got 1$"):
        load_object({"kind": "mass", "atoms": ["x"], "body": {1: "1"}})
    with pytest.raises(TypeError, match="^no document format for object$"):
        document_for(object())
