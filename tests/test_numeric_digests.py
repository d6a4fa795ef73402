"""``belief``, ``fishburn`` and ``from-mass`` output, and the numeric
documents' round trip, byte for byte, on a seeded m=1–6 corpus.

Every document here is made by this module from its seed: for each m and
each n ∈ {1, 3, 9, 64}, a random basic assignment's interval structure, a
probability with zero weights among its situations, and a mass function on
up to n focal subsets.  The documents spell some values off the canonical
form (not in lowest terms, as JSON integers, explicit zeros), so the round
trip pins how the loader reads them.  Each m has one SHA-256 digest over the
exit code and output of ``belief`` and ``fishburn --format text|json``, of
``from-mass``, and of ``dumps(loads(...))`` on the probability and mass
documents.  A separate digest pins the exit code and error text of bad
numeric documents: a negative weight, weights summing to 2/3, a zero mass,
mass on ∅, and ``from-mass`` on more focal subsets than the situation cap.
The digests were recorded while the bridge still computed on ``Fraction``
values, so they pin its integer form to the same bytes.

    PYTHONPATH=src python tests/test_numeric_digests.py

prints the digests of the program on the path.
"""

import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from ambicalc.cli import run_command
from ambicalc.documents import dumps, loads

EXPECTED = {
    1: "d4ef8fe9ad7c3d79adbc4a623e84e48f51fe74c75f84ded0579eb35e09e2a99d",
    2: "f0dcbf7c2d120436cf994a6ea1a58cb29802e4806096320ec7a340a8ad9ca416",
    3: "52a0728108a4c747bc553481b8fd7b37ccf37965e83dce230a8a662d8f2f8d9c",
    4: "644b5e22a8ec12df3e73a93a29639732b9fe6a4715cea0b8e20fd4650a7c8135",
    5: "e1f66f9bd84a673422389dd5929d4d86de111c65db6a6c6cca04f5b7fe171430",
    6: "c05902e14da4ff4003f2ca74de003fae9915f337042c691d7c941b7b023760c2",
}

BAD_EXPECTED = "bd3225970c042dde20e89aefe37b524fd989f0d1ef521c50abc15a319fa327b1"

SEEDS = 2
SITUATIONS = (1, 3, 9, 64)


def members(mask, names):
    return [name for k, name in enumerate(names) if mask >> k & 1]


def key(mask, atoms):
    return ",".join(members(mask, atoms))


def write(path, doc):
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return str(path)


def interval(m, n, rng, atoms, sits):
    """The interval document of a random basic assignment."""
    size = 1 << m
    cells = [0] * size
    for w in range(n):
        cells[rng.randrange(1, size)] |= 1 << w
    lower = list(cells)
    for k in range(m):
        for a in range(size):
            if a >> k & 1:
                lower[a] |= lower[a ^ 1 << k]
    omega = (1 << n) - 1
    upper = [omega ^ lower[size - 1 ^ a] for a in range(size)]

    def body(table):
        return {key(a, atoms): members(t, sits) for a, t in enumerate(table) if t}

    return {"kind": "interval", "atoms": atoms, "situations": sits,
            "body": {"lower": body(lower), "upper": body(upper)}}


def spelled(value: Fraction, rng):
    """``value`` as the canonical string, a JSON integer where it is one, or
    ``"p/q"`` with both terms scaled up."""
    style = rng.randrange(3)
    if style == 1 and value.denominator == 1:
        return value.numerator
    if style == 2:
        scale = rng.randrange(2, 5)
        return f"{value.numerator * scale}/{value.denominator * scale}"
    return str(value)


def probability(n, rng, sits):
    """Weights in 0..4 with the last one positive; a zero weight is written
    out as ``"0"`` or ``0``, or left out."""
    raw = [rng.randrange(5) for _ in range(n - 1)] + [rng.randrange(1, 5)]
    total = sum(raw)
    body = {}
    for name, w in zip(sits, raw):
        if w or rng.randrange(3):
            body[name] = spelled(Fraction(w, total), rng)
    return {"kind": "probability", "situations": sits, "body": body}


def mass(m, n, rng, atoms):
    """Positive masses on min(n, 2^m − 1) distinct nonempty subsets."""
    focal = rng.sample(range(1, 1 << m), min(n, (1 << m) - 1))
    raw = [rng.randrange(1, 7) for _ in focal]
    total = sum(raw)
    body = {key(a, atoms): spelled(Fraction(w, total), rng) for a, w in sorted(zip(focal, raw))}
    return {"kind": "mass", "atoms": atoms, "body": body}


def calls(m, workdir):
    """(label, exit code, output) of every command and round trip of m's corpus."""
    atoms = [f"x{k + 1}" for k in range(m)]
    for n in SITUATIONS:
        sits = [f"w{k + 1}" for k in range(n)]
        for seed in range(SEEDS):
            rng = random.Random(f"numeric-digests/{m}/{n}/{seed}")
            stem = f"m{m}-n{n}-s{seed}"
            s = write(workdir / f"{stem}.interval.json", interval(m, n, rng, atoms, sits))
            docs = {
                "probability": probability(n, rng, sits),
                "mass": mass(m, n, rng, atoms),
            }
            paths = {kind: write(workdir / f"{stem}.{kind}.json", doc)
                     for kind, doc in docs.items()}
            for command in ("belief", "fishburn"):
                for fmt in ("text", "json"):
                    argv = [command, s, paths["probability"], "--format", fmt]
                    yield (stem, command, fmt), *run_command(argv)
            yield (stem, "from-mass"), *run_command(["from-mass", paths["mass"]])
            for kind, doc in docs.items():
                text = json.dumps(doc, ensure_ascii=False)
                yield (stem, kind, "dumps(loads)"), 0, dumps(loads(text)[1])


def bad_calls(workdir):
    """(label, exit code, output) of the commands on bad numeric documents."""
    for m, n in ((1, 1), (3, 3), (6, 9)):
        atoms = [f"x{k + 1}" for k in range(m)]
        sits = [f"w{k + 1}" for k in range(n)]
        stem = f"m{m}-n{n}"
        s = write(workdir / f"{stem}.interval.json",
                  interval(m, n, random.Random(f"numeric-digests/bad/{m}"), atoms, sits))
        negative = {"w1": "-1"} if n == 1 else {"w1": "-1/3", sits[-1]: "4/3"}
        weights = {"negative": negative, "two-thirds": {sits[-1]: "2/3"}}
        for name, body in weights.items():
            doc = {"kind": "probability", "situations": sits, "body": body}
            p = write(workdir / f"{stem}-{name}.probability.json", doc)
            for command in ("belief", "fishburn"):
                yield (stem, name, command), *run_command([command, s, p])
        full = ",".join(atoms)
        masses = {"zero": {"x1": "0", full: "1"} if m > 1 else {"x1": "0"},
                  "empty": {"": "1/2", full: "1/2"}}
        for name, body in masses.items():
            path = write(workdir / f"{stem}-{name}.mass.json",
                         {"kind": "mass", "atoms": atoms, "body": body})
            yield (stem, name, "from-mass"), *run_command(["from-mass", path])
    atoms = [f"x{k + 1}" for k in range(7)]
    body = {key(a, atoms): "1/70" for a in range(1, 71)}
    path = write(workdir / "m7-over-cap.mass.json", {"kind": "mass", "atoms": atoms, "body": body})
    yield ("m7", "over-cap", "from-mass"), *run_command(["from-mass", path])


def digest(rows, workdir):
    sha = hashlib.sha256()
    for label, code, out in rows:
        sha.update(json.dumps([label, code, out.replace(str(workdir), "")]).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("m", sorted(EXPECTED))
def test_bridge_output_is_unchanged(m, tmp_path):
    assert digest(calls(m, tmp_path), tmp_path) == EXPECTED[m]


def test_bad_numeric_documents_fail_with_the_same_text(tmp_path):
    assert digest(bad_calls(tmp_path), tmp_path) == BAD_EXPECTED


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for m in sorted(EXPECTED):
            print(f"    {m}: \"{digest(calls(m, Path(tmp)), Path(tmp))}\",")
        print(f"BAD_EXPECTED = \"{digest(bad_calls(Path(tmp)), Path(tmp))}\"")
    sys.exit(0)
