import hashlib
import json
from pathlib import Path

import pytest

from ambicalc.cli import build_parser, run_command
from ambicalc.documents import load_object, loads
from ambicalc.errors import AxiomViolation
from ambicalc.interval import make_interval_structure

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", fx("fix1_assignment.json")],
        ["check", fx("fix1_interval.json")],
        ["check", fx("fix1_ambiguity.json")],
        ["check", fx("fix1_incidence.json")],
        ["check", fx("fix1_probability.json")],
        ["check", fx("fix1_mass.json")],
        ["check", fx("fix2_ambiguity.json")],
        ["check", fx("fix3_assignment.json")],
        ["oracle", fx("fix1_interval.json")],
        ["oracle", fx("fix1_assignment.json")],
        ["extract", fx("fix1_interval.json")],
        ["build", fx("fix1_assignment.json")],
        ["ambiguity", fx("fix1_interval.json")],
        ["incidence", fx("fix1_assignment.json")],
        ["incidence", fx("fix1_assignment.json"), "--selector", "seed:7"],
        ["decompose", fx("fix1_interval.json")],
        ["compose", fx("fix1_incidence.json"), fx("fix1_ambiguity.json")],
        ["belief", fx("fix1_interval.json"), fx("fix1_probability.json")],
        ["from-mass", fx("fix1_mass.json")],
        ["fishburn", fx("fix1_interval.json"), fx("fix1_probability.json")],
        ["gen", "--kind", "assignment"],
        ["gen", "--kind", "probability", "--atoms", "2", "--situations", "5"],
        ["gen", "--kind", "incidence", "--seed", "9"],
        ["fuzz", "--trials", "5", "--atoms", "3", "--situations", "4"],
    ],
)
def test_subcommands_succeed(argv):
    code, text = run_command(argv)
    assert code == 0, text
    assert text


def test_check_reports_every_axiom(capsys):
    code, text = run_command(["check", fx("fix1_interval.json")])
    assert code == 0
    for axiom in ("f̄1", "f̄2", "f̄3", "f̄4", "duality", "f1", "f2", "f3", "f4", "sandwich"):
        assert f"{axiom} ✓" in text


def test_check_json_format():
    code, text = run_command(["check", fx("fix1_assignment.json"), "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert all(v["ok"] for v in data["verdicts"])


def test_build_matches_fixture_bytes():
    code, text = run_command(["build", fx("fix1_assignment.json")])
    assert code == 0
    assert text == (FIXTURES / "fix1_interval.json").read_text(encoding="utf-8")


def test_extract_build_roundtrip(tmp_path):
    out = tmp_path / "j.json"
    code, text = run_command(["extract", fx("fix1_interval.json"), "--out", str(out)])
    assert code == 0 and text == ""
    assert out.read_text(encoding="utf-8") == (FIXTURES / "fix1_assignment.json").read_text(
        encoding="utf-8"
    )


def test_check_failing_document(tmp_path):
    doc = {
        "kind": "assignment",
        "atoms": ["x", "y"],
        "situations": ["w1", "w2"],
        "body": {"x": ["w1", "w2"], "y": ["w2"]},
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = run_command(["check", str(path)])
    assert code == 1
    assert "j3 ✗" in text


@pytest.mark.parametrize(
    "name, rows",
    [
        ("fix1_probability.json", ["nonnegative", "normalized"]),
        ("fix1_mass.json", ["no-mass-on-empty", "positive", "normalized"]),
    ],
)
def test_check_numeric_document_bytes(name, rows):
    assert run_command(["check", fx(name)]) == (0, "\n".join(f"{row} ✓" for row in rows))
    verdicts = [{"axiom": row, "ok": True} for row in rows]
    expected = json.dumps({"ok": True, "verdicts": verdicts}, indent=2)
    assert run_command(["check", fx(name), "--format", "json"]) == (0, expected)


def test_check_negative_weight_is_a_loader_error(tmp_path):
    doc = {
        "kind": "probability",
        "situations": ["w1", "w2"],
        "body": {"w1": "3/2", "w2": "-1/2"},
    }
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(["check", str(path)]) == (1, "error: weight of w2 is negative")


def test_build_rejects_bad_input_through_its_constructor(tmp_path):
    doc = {
        "kind": "assignment",
        "atoms": ["x"],
        "situations": ["w1", "w2"],
        "body": {"x": ["w1"]},
    }
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = run_command(["build", str(path)])
    assert (code, text) == (1, "error: j2 fails: situation w2 lies in no cell")


def test_compose_incompatible_pair_message():
    code, text = run_command(
        ["compose", fx("fix2_incidence.json"), fx("fix2_ambiguity.json")]
    )
    assert code == 1
    assert text == "error: compatibility fails at A={x}, B={y}"


def test_usage_errors_are_exit_2(tmp_path):
    assert run_command([])[0] == 2
    assert run_command(["no-such-command"])[0] == 2
    assert run_command(["check"])[0] == 2
    assert run_command(["check", str(tmp_path / "missing.json")])[0] == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")
    code, text = run_command(["check", str(garbled)])
    assert code == 2
    assert "error:" in text
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(
        json.dumps(
            {
                "kind": "assignment",
                "atoms": ["x", "y"],
                "situations": ["w"],
                "body": {"y,x": ["w"]},
            }
        ),
        encoding="utf-8",
    )
    assert run_command(["check", str(bad_key)])[0] == 2
    assert run_command(["incidence", fx("fix1_assignment.json"), "--selector", "bogus"])[0] == 2


@pytest.mark.parametrize(
    "atoms, message",
    [
        ([], "a frame needs at least one element"),
        ([f"x{k}" for k in range(17)], "frame size 17 exceeds the cap of 16"),
        (["x", "x"], "frame element 'x' declared twice"),
    ],
)
def test_malformed_frame_is_exit_2(tmp_path, atoms, message):
    doc = tmp_path / "frame.json"
    doc.write_text(
        json.dumps({"kind": "assignment", "atoms": atoms, "situations": ["w"], "body": {}}),
        encoding="utf-8",
    )
    assert run_command(["check", str(doc)]) == (2, f"error: {message}")


@pytest.mark.parametrize("atoms", ["0", "17"])
def test_gen_atom_count_out_of_range_is_exit_2(atoms):
    code, text = run_command(["gen", "--kind", "assignment", "--atoms", atoms])
    assert (code, text) == (2, "error: atom count must be in 1..16")


def test_fuzz_with_no_trials_is_exit_2():
    assert run_command(["fuzz", "--trials", "0"]) == (2, "error: need at least one trial")


def test_malformed_selector_table_is_exit_2(tmp_path):
    table = tmp_path / "sel.json"
    table.write_text('{"x": ', encoding="utf-8")
    code, text = run_command(["incidence", fx("fix1_assignment.json"), "--selector", f"@{table}"])
    assert code == 2
    assert text.startswith("error: selector table: ")


def test_explicit_selector_table(tmp_path):
    table = tmp_path / "sel.json"
    table.write_text(json.dumps({"x": "x", "y": "y", "x,y": "y"}), encoding="utf-8")
    code, text = run_command(
        ["incidence", fx("fix1_assignment.json"), "--selector", f"@{table}"]
    )
    assert code == 0
    _, inc = loads(text)
    assert inc.origin.targets == (0, 1, 1)
    # an entry outside its focal element is a domain failure, not a parse one
    table.write_text(json.dumps({"x": "y", "y": "y", "x,y": "y"}), encoding="utf-8")
    code, _ = run_command(
        ["incidence", fx("fix1_assignment.json"), "--selector", f"@{table}"]
    )
    assert code == 1


def test_decompose_to_files(tmp_path):
    inc_path = tmp_path / "inc.json"
    amb_path = tmp_path / "amb.json"
    code, text = run_command(
        [
            "decompose",
            fx("fix1_interval.json"),
            "--out-incidence",
            str(inc_path),
            "--out-ambiguity",
            str(amb_path),
        ]
    )
    assert code == 0 and text == ""
    assert inc_path.read_text(encoding="utf-8") == (FIXTURES / "fix1_incidence.json").read_text(
        encoding="utf-8"
    )
    assert amb_path.read_text(encoding="utf-8") == (FIXTURES / "fix1_ambiguity.json").read_text(
        encoding="utf-8"
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_seeded_selector_output_bytes(tmp_path):
    # recorded when the seeded pick became derive_seed modulo the focal size
    code, text = run_command(["incidence", fx("fix1_assignment.json"), "--selector", "seed:7"])
    assert code == 0
    assert _sha256(text) == "a57bc529983d311cf758e78a89fb7008a91292ad24d9d07e4cb1b4cd89a1eae1"
    code, text = run_command(["decompose", fx("fix1_interval.json"), "--selector", "seed:3"])
    assert code == 0
    assert _sha256(text) == "b515b1193ec4bfb99a5513875f7ef3038e0f2f066aaaf8749e283703232b6f1b"
    inc, amb = tmp_path / "inc.json", tmp_path / "amb.json"
    code, text = run_command(
        ["decompose", fx("fix1_interval.json"), "--selector", "seed:3",
         "--out-incidence", str(inc), "--out-ambiguity", str(amb)]
    )
    assert (code, text) == (0, "")
    assert _sha256(inc.read_text(encoding="utf-8")) == (
        "708f6c3012e164fcb667da77a64085cae22a6bff7a2228a39137d2737f233c24"
    )
    assert _sha256(amb.read_text(encoding="utf-8")) == (
        "2961a70f702743abf08c66e595078a0d567005d6771b8e0bb27fb7565f7b1a5d"
    )


def test_decompose_combined_output():
    code, text = run_command(["decompose", fx("fix1_interval.json")])
    assert code == 0
    data = json.loads(text)
    assert data["incidence"]["kind"] == "incidence"
    assert data["ambiguity"]["kind"] == "ambiguity"


def test_belief_text_values():
    code, text = run_command(
        ["belief", fx("fix1_interval.json"), fx("fix1_probability.json")]
    )
    assert code == 0
    assert "{x} Bel=1/3 Pl=2/3 alpha=1/3" in text
    assert "bel-mass-identity ✓" in text
    assert "pl-complement ✓" in text


def test_belief_json_values():
    code, text = run_command(
        ["belief", fx("fix1_interval.json"), fx("fix1_probability.json"), "--format", "json"]
    )
    assert code == 0
    data = json.loads(text)
    assert data["belief"]["x"] == {"bel": "1/3", "pl": "2/3", "alpha": "1/3"}
    assert data["mass"]["body"] == {"x": "1/3", "y": "1/3", "x,y": "1/3"}


def test_from_mass_combined():
    code, text = run_command(["from-mass", fx("fix1_mass.json")])
    assert code == 0
    data = json.loads(text)
    assert data["probability"]["situations"] == ["w_x", "w_y", "w_x,y"]
    assert data["assignment"]["kind"] == "assignment"
    assert data["interval"]["kind"] == "interval"


def _mass_doc(path, focal_count):
    atoms = [f"x{k}" for k in range(7)]
    body = {
        ",".join(a for k, a in enumerate(atoms) if mask >> k & 1): f"1/{focal_count}"
        for mask in range(1, focal_count + 1)
    }
    path.write_text(json.dumps({"kind": "mass", "atoms": atoms, "body": body}), encoding="utf-8")
    return str(path)


def test_from_mass_over_the_situation_cap_is_exit_1(tmp_path):
    # the canonical model needs one situation per focal subset; above the
    # cap its documents would not load back
    code, text = run_command(["from-mass", _mass_doc(tmp_path / "m70.json", 70)])
    assert code == 1
    assert text.startswith("error: mass function has 70 focal elements")
    assert "the cap is 64" in text


def test_from_mass_at_the_situation_cap_loads_back(tmp_path):
    code, text = run_command(["from-mass", _mass_doc(tmp_path / "m64.json", 64)])
    assert code == 0
    for kind in ("probability", "assignment", "interval"):
        doc = tmp_path / f"{kind}.json"
        doc.write_text(json.dumps(json.loads(text)[kind]), encoding="utf-8")
        assert run_command(["check", str(doc)])[0] == 0


def test_fishburn_output():
    code, text = run_command(
        ["fishburn", fx("fix1_interval.json"), fx("fix1_probability.json")]
    )
    assert code == 0
    for line in ("α1 ✓", "α2 ✓", "α3 ✓", "α(Θ)=0 ✓"):
        assert line in text


def test_gen_is_deterministic():
    argv = ["gen", "--kind", "assignment", "--atoms", "3", "--situations", "5", "--seed", "4"]
    assert run_command(argv) == run_command(argv)
    other = run_command(argv[:-1] + ["5"])
    assert other != run_command(argv)


def test_fuzz_cli_output():
    argv = ["fuzz", "--trials", "8", "--atoms", "3", "--situations", "4", "--seed", "2"]
    code, text = run_command(argv)
    assert code == 0
    assert "failures: none" in text
    assert run_command(argv) == (code, text)
    code_json, text_json = run_command(argv + ["--format", "json"])
    assert code_json == 0
    assert json.loads(text_json)["failures"] == []


def test_fuzz_fault_mode_cli():
    code, text = run_command(
        ["fuzz", "--trials", "6", "--fault-injection", "--atoms", "3", "--situations", "4"]
    )
    assert code == 0
    assert "mode: fault-injection" in text
    assert "fault-detected: pass=6 fail=0" in text


@pytest.mark.parametrize("command", ["check", "build", "oracle"])
def test_non_string_image_member_is_exit_2(tmp_path, command):
    doc = tmp_path / "member.json"
    doc.write_text(
        json.dumps(
            {"kind": "assignment", "atoms": ["x"], "situations": ["w1"], "body": {"x": [["w1"]]}}
        ),
        encoding="utf-8",
    )
    assert run_command([command, str(doc)]) == (2, "error: unknown element ['w1']")


@pytest.mark.parametrize("command", ["check", "build", "oracle"])
def test_non_utf8_document_is_exit_2(tmp_path, command):
    data = FIXTURES.joinpath("fix1_assignment.json").read_bytes().replace(b'"w1"', b'"w\xe91"')
    doc = tmp_path / "latin1.json"
    doc.write_bytes(data)
    at = data.index(b"\xe9")
    message = f"error: {doc}: not valid UTF-8 (invalid continuation byte at byte {at})"
    assert run_command([command, str(doc)]) == (2, message)


@pytest.mark.parametrize("field", ["atoms", "situations"])
@pytest.mark.parametrize("argv", [["check"], ["build"], ["build", "--out", "OUT"]])
def test_name_with_a_lone_surrogate_is_exit_2(tmp_path, field, argv):
    atom, situation = ("x\ud800", "w1") if field == "atoms" else ("x", "w\ud800")
    doc = tmp_path / "surrogate.json"
    # json.dumps escapes the lone surrogate as the six characters \ud800
    doc.write_text(
        json.dumps({"kind": "assignment", "atoms": [atom], "situations": [situation],
                    "body": {atom: [situation]}}),
        encoding="utf-8",
    )
    out = tmp_path / "out.json"
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    code, text = run_command([argv[0], str(doc), *argv[1:]])
    name = atom if field == "atoms" else situation
    assert (code, text) == (2, f"error: {field}: name {name!r} cannot be encoded as UTF-8")
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--sample", "5"], ["--exhaustive"], ["--validate"]])
def test_removed_sweep_flags_are_exit_2(flag):
    assert run_command(["check", fx("fix1_interval.json"), *flag])[0] == 2


def test_non_utf8_selector_table_is_exit_2(tmp_path):
    table = tmp_path / "sel.json"
    table.write_bytes(b'{"x": "\xff"}')
    code, text = run_command(["incidence", fx("fix1_assignment.json"), "--selector", f"@{table}"])
    assert (code, text) == (2, f"error: {table}: not valid UTF-8 (invalid start byte at byte 7)")


def test_deeply_nested_json_is_exit_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert run_command(["check", str(deep)]) == (2, "error: document nests too deeply")
    code, text = run_command(["incidence", fx("fix1_assignment.json"), "--selector", f"@{deep}"])
    assert (code, text) == (2, "error: selector table: nests too deeply")


@pytest.mark.parametrize("bias", ["nan", "inf", "1e308", "-1e308"])
def test_fuzz_unusable_focal_bias_is_exit_2(bias):
    code, text = run_command(["fuzz", "--trials", "1", f"--focal-bias={bias}"])
    assert code == 2
    assert text.startswith("error: focal bias ")


def test_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()
    argv = ["check", fx("fix1_interval.json"), "--format", "json"]
    alone = run_command(argv)
    assert run_command(["check", fx("fix1_interval.json"), "--format", "yaml"])[0] == 2
    assert run_command(["incidence", fx("fix1_assignment.json"), "--selector", "bogus"])[0] == 2
    assert run_command(argv) == alone


@pytest.mark.parametrize(
    "argv",
    [
        # the first five have no output file of their own
        ["check", fx("fix1_interval.json")],
        ["oracle", fx("fix1_interval.json")],
        ["belief", fx("fix1_interval.json"), fx("fix1_probability.json")],
        ["fishburn", fx("fix1_interval.json"), fx("fix1_probability.json")],
        ["decompose", fx("fix1_interval.json")],
        ["build", fx("fix1_assignment.json")],
        ["extract", fx("fix1_interval.json")],
        ["gen", "--kind", "assignment"],
        ["fuzz", "--trials", "3", "--atoms", "3", "--situations", "4"],
    ],
)
def test_out_writes_the_printed_text_and_prints_nothing(tmp_path, argv):
    code, text = run_command(argv)
    out = tmp_path / "out.txt"
    assert run_command([*argv, "--out", str(out)]) == (code, "")
    assert out.read_text(encoding="utf-8") == text


def test_out_to_a_path_that_cannot_be_written_is_exit_2(tmp_path):
    out = tmp_path / "missing" / "out.txt"
    code, text = run_command(["check", fx("fix1_interval.json"), "--out", str(out)])
    assert code == 2 and text.startswith("error: ")
    assert not out.exists()


def test_an_error_goes_to_stdout_not_to_out(tmp_path):
    out = tmp_path / "out.txt"
    argv = ["check", str(tmp_path / "missing.json"), "--out", str(out)]
    code, text = run_command(argv)
    assert code == 2 and text.startswith("error: ")
    assert not out.exists()


def _interval_flips():
    """fix1_interval.json with one bit of one image flipped, for every bit:
    each breaks the duality, or an upper axiom first."""
    doc = json.loads((FIXTURES / "fix1_interval.json").read_text(encoding="utf-8"))
    keys = ["", "x", "y", "x,y"]
    for side in ("lower", "upper"):
        for key in keys:
            for situation in doc["situations"]:
                flipped = json.loads(json.dumps(doc))
                image = flipped["body"][side].setdefault(key, [])
                if situation in image:
                    image.remove(situation)
                else:
                    image.append(situation)
                image.sort()
                if not image:
                    del flipped["body"][side][key]
                yield f"{side}-{key or 'empty'}-{situation}", flipped


@pytest.mark.parametrize("name, doc", list(_interval_flips()))
def test_interval_commands_reject_a_flipped_bit_through_the_gate(tmp_path, name, doc):
    s = load_object(doc)
    with pytest.raises(AxiomViolation) as info:
        make_interval_structure(s.lower, s.upper)
    expected = (1, f"error: {info.value}")
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    prob = fx("fix1_probability.json")
    for argv in (["extract", path], ["ambiguity", path], ["decompose", path],
                 ["belief", path, prob], ["fishburn", path, prob]):
        assert run_command([str(arg) for arg in argv]) == expected


def test_a_flipped_bit_reports_the_first_failing_defining_axiom(tmp_path):
    flips = dict(_interval_flips())
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(flips["lower-x-w3"]), encoding="utf-8")
    assert run_command(["extract", str(path)]) == (
        1, "error: duality fails: A={x}: lower image {w1,w3} vs complement of upper ¬A image {w1}"
    )
    path.write_text(json.dumps(flips["upper-x,y-w3"]), encoding="utf-8")
    assert run_command(["extract", str(path)]) == (1, "error: f̄2 fails: image of Θ is {w1,w2}")


def _write(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


_TWO = {"kind": "assignment", "atoms": ["x", "y"], "situations": ["w1", "w2"]}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["incidence", fx("fix1_assignment.json"), "--selector", "seed:x"],
         (2, "error: bad selector seed in 'seed:x'")),
        (["incidence", fx("fix1_assignment.json"), "--selector", "@TABLE", [1]],
         (2, "error: a selector table must be a JSON object")),
        (["incidence", fx("fix1_assignment.json"), "--selector", "@TABLE", {"x": 1}],
         (2, "error: selector value for 'x' must be an atom name")),
        (["check", {**_TWO, "atoms": "x", "body": {}}],
         (2, "error: atoms must be a list of strings")),
        (["check", {**_TWO, "situations": ["w1", "w1"], "body": {}}],
         (2, "error: situation space element 'w1' declared twice")),
        (["check", {**_TWO, "body": []}], (2, "error: body must be an object")),
        (["check", {**_TWO, "kind": "incidence", "body": []}],
         (2, "error: body must be an object")),
        (["check", {"kind": "probability", "situations": ["w1"], "body": []}],
         (2, "error: body must be an object")),
        (["check", {"kind": "probability", "situations": ["w1"], "body": {"w1": "1", "w9": "0"}}],
         (2, "error: unknown situation name: 'w9'")),
        (["check", {"kind": "mass", "atoms": ["x"], "body": []}],
         (2, "error: body must be an object")),
        (["check", {"kind": "mass", "atoms": ["x"], "body": {"x": "1/0"}}],
         (2, "error: not a rational literal: '1/0'")),
        (["check", {"kind": "probability", "situations": ["w1", "w2"],
                    "body": {"w1": "1/2\n", "w2": "2/4"}}],
         (2, "error: not a rational literal: '1/2\\n'")),
        (["check", {"kind": "mass", "atoms": ["x", "y"], "body": {"x": "1/2\n", "y": "2/4"}}],
         (2, "error: not a rational literal: '1/2\\n'")),
        (["check", {"kind": "mass", "atoms": ["x"], "body": {"x": "\u0661"}}],
         (2, "error: not a rational literal: '\u0661'")),
        (["incidence", {**_TWO, "body": {"x": ["w1", "w2"], "y": ["w2"]}}],
         (1, "error: cells do not partition the situation space")),
        (["compose", fx("fix1_incidence.json"),
          {"kind": "ambiguity", "atoms": ["x", "z"], "situations": ["w1", "w2", "w3"], "body": {}}],
         (1, "error: incidence and ambiguity maps use different frames")),
        (["compose", fx("fix1_incidence.json"),
          {"kind": "ambiguity", "atoms": ["x", "y"], "situations": ["w1", "w2", "w4"], "body": {}}],
         (1, "error: incidence and ambiguity maps use different spaces")),
    ],
)
def test_guard_texts(tmp_path, argv, expected):
    """A dict in ``argv`` is a document written to a file; after "@TABLE",
    it is the selector table."""
    args = []
    for k, arg in enumerate(argv):
        if isinstance(arg, str):
            args.append(arg)
        elif argv[k - 1] == "@TABLE":
            args[-1] = "@" + _write(tmp_path, "table.json", arg)
        else:
            args.append(_write(tmp_path, f"doc{k}.json", arg))
    assert run_command(args) == expected
