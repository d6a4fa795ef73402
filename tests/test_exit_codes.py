"""The command line's exit-code contract, on drawn argv and document bytes.

Every call returns exit code 0, 1 or 2 with a text and never raises, and a
call leaves nothing behind that changes the next one: the parser is shared by
every call in a process.  Frames stay at m <= 4 so the property runs in
seconds.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambicalc.cli import run_command

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_BYTES = {p.name: p.read_bytes() for p in sorted(FIXTURES.glob("*.json"))}


def fx(name: str) -> str:
    return str(FIXTURES / name)


VALID_CALLS = [
    ["check", fx("fix1_interval.json"), "--format", "json"],
    ["check", fx("fix2_ambiguity.json")],
    ["oracle", fx("fix1_assignment.json")],
    ["build", fx("fix3_assignment.json")],
    ["decompose", fx("fix1_interval.json"), "--selector", "seed:3"],
    ["compose", fx("fix2_incidence.json"), fx("fix2_ambiguity.json")],
    ["belief", fx("fix1_interval.json"), fx("fix1_probability.json"), "--format", "json"],
    ["gen", "--kind", "incidence", "--atoms", "4", "--seed", "7"],
    ["fuzz", "--trials", "2", "--atoms", "3", "--situations", "4", "--seed", "1"],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-codes")


@st.composite
def mutated_fixture(draw) -> bytes:
    data = bytearray(FIXTURE_BYTES[draw(st.sampled_from(sorted(FIXTURE_BYTES)))])
    data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@st.composite
def non_utf8(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(sorted(FIXTURE_BYTES.values()))))
    data.insert(draw(st.integers(0, len(data))), draw(st.sampled_from([0x80, 0xC3, 0xE9, 0xFF])))
    return bytes(data)


document_bytes = st.one_of(
    st.binary(max_size=64),
    st.sampled_from(sorted(FIXTURE_BYTES.values())),
    mutated_fixture(),
    non_utf8(),
)

seeds = st.integers(-3, 10**6).map(str)


@st.composite
def argvs(draw, doc: str, workdir: Path) -> list[str]:
    """argv drawn from the command grammar; ``doc`` holds the drawn bytes."""
    files = st.sampled_from([doc, doc, fx("fix1_interval.json"), fx("fix1_probability.json"),
                             fx("fix1_incidence.json"), fx("fix1_ambiguity.json"),
                             fx("fix1_mass.json"), str(workdir / "missing.json")])
    command = draw(st.sampled_from([
        "check", "oracle", "extract", "build", "ambiguity", "incidence", "decompose",
        "compose", "belief", "from-mass", "fishburn", "gen", "fuzz", "bogus",
    ]))
    argv = [command]
    if command in ("compose", "belief", "fishburn"):
        argv += [draw(files), draw(files)]
    elif command not in ("gen", "fuzz", "bogus"):
        argv.append(draw(files))
    if command in ("incidence", "decompose") and draw(st.booleans()):
        fixed = st.sampled_from(["min", "bogus", "seed:x", f"@{doc}"])
        argv += ["--selector", draw(fixed | seeds.map("seed:{}".format))]
    if command == "gen":
        argv += ["--kind", draw(st.sampled_from(["assignment", "probability", "incidence", "x"]))]
        argv += ["--atoms", str(draw(st.integers(0, 4) | st.just(17)))]
        argv += ["--situations", str(draw(st.integers(0, 6) | st.just(65)))]
    if command == "fuzz":
        argv += ["--trials", str(draw(st.integers(0, 2)))]
        argv += ["--atoms", str(draw(st.integers(0, 4)))]
        argv += ["--situations", str(draw(st.integers(0, 6)))]
        if draw(st.booleans()):
            argv.append("--fault-injection")
    if command in ("gen", "fuzz") and draw(st.booleans()):
        argv += ["--seed", draw(seeds | st.just("x"))]
    if command in ("check", "oracle", "belief", "fishburn", "fuzz") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "yaml"]))]
    if draw(st.booleans()):
        argv += ["--out", str(workdir / "out.json")]
    if draw(st.integers(0, 9)) == 0:
        strays = ["--help", "-x", "--", "--sample", "--validate", "--seed=3", "--format=json"]
        stray = draw(st.sampled_from(strays))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


def _contract(argv):
    code, text = run_command(argv)
    assert code in (0, 1, 2), (argv, code, text)
    assert isinstance(text, str)
    return code, text


@settings(max_examples=300)
@given(data=st.data(), content=document_bytes, valid=st.sampled_from(VALID_CALLS))
def test_any_argv_and_document_keeps_the_exit_code_contract(workdir, data, content, valid):
    doc = workdir / "doc.json"
    doc.write_bytes(content)
    alone = _contract(valid)
    _contract(data.draw(argvs(str(doc), workdir), label="argv"))
    assert _contract(valid) == alone
