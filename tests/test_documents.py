import hashlib
import json

import pytest

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    Frame,
    IncidenceMap,
    IntervalStructure,
    MassFunction,
    ParseError,
    ProbabilityAssignment,
    SchemaError,
    SetValuedMap,
    SituationSpace,
    ValidationError,
    ambiguity_from_interval,
    decompose_interval,
    mass_from_structure,
    structure_from_assignment,
)
from ambicalc.documents import (
    document_for,
    dumps,
    load_object,
    loads,
    parse_document,
    render_document,
)
from ambicalc.harness import GenConfig, gen_assignment, gen_probability


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
    # load_object is the kind gate for a raw dict as for JSON text
    with pytest.raises(SchemaError, match="^unknown document kind: 'bogus'$"):
        load_object({"kind": "bogus"})
    # JSON object keys are always strings
    with pytest.raises(SchemaError, match="^subset key must be a string, got 1$"):
        load_object({"kind": "mass", "atoms": ["x"], "body": {1: "1"}})
    with pytest.raises(TypeError, match="^no document format for object$"):
        document_for(object())


# --- the codec of every kind, pinned: a seeded corpus and every loader guard

# names that JSON escapes, or that are not ASCII
CORPUS_ATOMS = ("a", 'b"', "ç", "d\\", "e f", "☃")
CORPUS_SITUATIONS = ("w1", "w\n2", "ш3", "w 4", "w\t5", "w6", "w7", "w8")
CORPUS_DIGEST = "de3ab0bf066a7886f42f582a7bad68bcb7cbd0ce5fe5bc0731d7491f359a5de7"


def corpus():
    """Three seeded instances of every kind at each m ∈ {1…6}: an assignment,
    its structure, the structure's gap and min-index incidence map, a
    probability (zero on the first situation in the second seed) and their
    mass."""
    for m in range(1, 7):
        for k, n in enumerate((1, 3, 8)):
            cfg = GenConfig(m=m, n=n, seed=10 * m + k)
            frame = Frame(CORPUS_ATOMS[:m])
            space = SituationSpace(CORPUS_SITUATIONS[:n])
            j = BasicAssignment(SetValuedMap(frame, space, gen_assignment(cfg).map.table))
            s = structure_from_assignment(j)
            inc, amb = decompose_interval(s)
            weights = list(gen_probability(cfg).numerators)
            if k == 1:
                weights[0] = 0
            p = ProbabilityAssignment.from_integers(space, weights)
            yield from (j, s, amb, inc, p, mass_from_structure(s, p))


def test_every_kind_round_trips_byte_for_byte():
    digest = hashlib.sha256()
    kinds = set()
    for obj in corpus():
        for compact in (False, True):
            text = dumps(obj, compact=compact)
            kind, back = loads(text)
            assert back == obj
            assert dumps(back, compact=compact) == text
            digest.update(text.encode("utf-8"))
            kinds.add(kind)
    assert kinds == {"assignment", "interval", "ambiguity", "incidence", "probability", "mass"}
    assert digest.hexdigest() == CORPUS_DIGEST


HEAD = {"atoms": ["x", "y"], "situations": ["w1", "w2"]}
VALID = {
    "assignment": {"kind": "assignment", **HEAD, "body": {"x": ["w1"], "x,y": ["w2"]}},
    "interval": {"kind": "interval", **HEAD,
                 "body": {"lower": {"x": ["w1"], "x,y": ["w1", "w2"]},
                          "upper": {"x": ["w1", "w2"], "y": ["w2"], "x,y": ["w1", "w2"]}}},
    "ambiguity": {"kind": "ambiguity", **HEAD, "body": {"x": ["w2"], "y": ["w2"]}},
    "incidence": {"kind": "incidence", **HEAD, "body": {"w1": "x", "w2": "y"}},
    "probability": {"kind": "probability", "situations": ["w1", "w2"],
                    "body": {"w1": "1/3", "w2": "2/3"}},
    "mass": {"kind": "mass", "atoms": ["x", "y"], "body": {"x": "1/2", "x,y": "1/2"}},
}


def test_the_guarded_documents_start_valid():
    for kind, doc in VALID.items():
        text = json.dumps(doc, ensure_ascii=False, indent=2) + "\n"
        assert loads(text)[0] == kind
        assert dumps(loads(text)[1]) == text


def _guard_cases():
    """(name, document, error class, text) for every guard of every kind."""
    S = SchemaError
    for kind, doc in VALID.items():
        fields = list(doc)
        for field in fields[1:]:
            yield (f"{kind}-missing-{field}",
                   {k: v for k, v in doc.items() if k != field}, S, f"missing fields: {field}")
        yield (f"{kind}-missing-all", {"kind": kind}, S,
               f"missing fields: {', '.join(fields[1:])}")
        yield f"{kind}-unexpected", {**doc, "z": 1, "y": 2}, S, "unexpected fields: z, y"
        yield (f"{kind}-missing-and-unexpected",
               {**{k: v for k, v in doc.items() if k != "body"}, "z": 1}, S,
               "missing fields: body")
        for field in ("atoms", "situations"):
            if field not in doc:
                yield (f"{kind}-foreign-{field}", {**doc, field: ["x"]}, S,
                       f"unexpected fields: {field}")
        body_text = ('interval body must have exactly "lower" and "upper"'
                     if kind == "interval" else "body must be an object")
        for body in ([], "x", None):
            yield f"{kind}-body-{body!r}", {**doc, "body": body}, S, body_text
        if "atoms" in doc:
            for atoms, text in [
                ("x", "atoms must be a list of strings"),
                (["x", 1], "atoms must be a list of strings"),
                ([], "a frame needs at least one element"),
                (["x", "x"], "frame element 'x' declared twice"),
                (["x", ""], "frame element names must be non-empty strings"),
                (["x,y"], "atom name 'x,y' may not contain a comma"),
                ([f"x{k}" for k in range(17)], "frame size 17 exceeds the cap of 16"),
                (["x", "\ud800"], "atoms: name '\\ud800' cannot be encoded as UTF-8"),
            ]:
                yield f"{kind}-atoms-{text}", {**doc, "atoms": atoms}, S, text
        if "situations" in doc:
            for situations, text in [
                ({"w1": 1}, "situations must be a list of strings"),
                ([None], "situations must be a list of strings"),
                ([], "a situation space needs at least one element"),
                (["w1", "w1"], "situation space element 'w1' declared twice"),
                ([""], "situation space element names must be non-empty strings"),
                ([f"w{k}" for k in range(65)], "situation space size 65 exceeds the cap of 64"),
                (["\udfff"], "situations: name '\\udfff' cannot be encoded as UTF-8"),
            ]:
                yield f"{kind}-situations-{text}", {**doc, "situations": situations}, S, text
        if "atoms" in doc and "situations" in doc:
            yield (f"{kind}-atoms-before-situations", {**doc, "atoms": [], "situations": []},
                   S, "a frame needs at least one element")
            yield (f"{kind}-universes-before-body", {**doc, "atoms": [], "body": []},
                   S, "a frame needs at least one element")
    for kind in ("bogus", None, 1, ["mass"], {"k": "mass"}, "Mass"):
        yield (f"kind-{kind!r}", {**VALID["mass"], "kind": kind}, S,
               f"unknown document kind: {kind!r}")
    yield "no-kind", {"atoms": ["x"], "body": {}}, S, "unknown document kind: None"
    yield "not-an-object", ["kind", "mass"], S, "document must be a JSON object"
    inc = VALID["incidence"]
    for body, text in [
        ({"w1": "x"}, "no atom assigned to situation 'w2'"),
        ({"w1": "x", "w2": "y", "w9": "x"}, "unknown situation name: 'w9'"),
        ({"w1": 1, "w2": "y"}, "atom for 'w1' must be a string"),
        ({"w1": "x", "w2": ["y"]}, "atom for 'w2' must be a string"),
        ({"w1": "x", "w2": "q"}, "unknown element 'q'"),
        # two faults: the missing situation is named, not the stray one
        ({"w1": "x", "w9": "x"}, "no atom assigned to situation 'w2'"),
    ]:
        yield f"incidence-{text}", {**inc, "body": body}, S, text
    prob = VALID["probability"]
    for body, error, text in [
        ({"w1": "1", "w9": "0"}, S, "unknown situation name: 'w9'"),
        ({"w1": "0.5", "w2": "1/2"}, S, "not a rational literal: '0.5'"),
        ({"w1": 0.5, "w2": "1/2"}, S, "not a rational literal: 0.5"),
        ({"w1": True}, S, "not a rational literal: True"),
        ({"w2": "1/0"}, S, "not a rational literal: '1/0'"),
        # two faults: weights are read in situation order, before stray names
        ({"w9": "1", "w2": "x"}, S, "not a rational literal: 'x'"),
        ({"w1": "1", "w2": "1/2"}, ValidationError, "weights sum to 3/2, not 1"),
        ({"w1": "-1", "w2": "2"}, ValidationError, "weight of w1 is negative"),
    ]:
        yield f"probability-{text}", {**prob, "body": body}, error, text
    mass = VALID["mass"]
    for body, error, text in [
        ({"q": "1"}, S, "unknown element 'q'"),
        ({"y,x": "1"}, ParseError, "subset key 'y,x' is not in canonical atom order"),
        ({"x": "1/2", "y": "half"}, S, "not a rational literal: 'half'"),
        # two faults in one entry: the key is read first
        ({"q": "half"}, S, "unknown element 'q'"),
        # and entries are read in document order
        ({"x": "half", "q": "1"}, S, "not a rational literal: 'half'"),
        ({"": "1"}, ValidationError, "the empty set cannot carry mass"),
        ({"x": "0", "y": "1"}, ValidationError, "mass of {x} must be a positive rational"),
        ({"x": "1/2"}, ValidationError, "masses sum to 1/2, not 1"),
    ]:
        yield f"mass-{text}", {**mass, "body": body}, error, text


GUARD_CASES = list(_guard_cases())


@pytest.mark.parametrize("doc, error, text", [case[1:] for case in GUARD_CASES],
                         ids=[case[0] for case in GUARD_CASES])
def test_loader_guards_keep_their_class_text_and_order(doc, error, text):
    with pytest.raises(error) as err:
        loads(json.dumps(doc))
    assert type(err.value) is error
    assert str(err.value) == text
