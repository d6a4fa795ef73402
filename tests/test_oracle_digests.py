"""``oracle`` output, byte for byte, on a seeded m=1–7 corpus.

Every document here is made by this module from its seed: a random basic
assignment, its lower and upper tables and their gap, each written valid and
with 1, 2 and 3 flipped bits, and a random point map with 0–3 situations
sent to a random atom.  An incidence document is a point map, so each of
those is a valid incidence map; the failing incidence verdicts are compared
with the main checker in ``test_oracle_agreement.py``.  Each m has one
SHA-256 digest over the exit code and output of
``oracle --format text|json`` on every document.

    PYTHONPATH=src python tests/test_oracle_digests.py

prints the digests of the program on the path.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from ambicalc.cli import run_command

EXPECTED = {
    1: "fa5c2fb7e20b95bd08e4e7d1fc589bdff3a5eda849d860399222ae24caee4e6d",
    2: "6782c7c77bf63217204269e0cf9d5600efe56c5396d5a3db3baa0d584ba02275",
    3: "6525eb220dc171371ec959096982fbbefaab93c62d8bc95db82e71a0efd5e2db",
    4: "c71a008d9db7a110b3aec44b58e371f84ca8f0ccb66e9efb72bc9632e9b2642f",
    5: "c636cc1ffbb12e1d3ceb8957f2dd51f4c601f814dbb2b6c950af42d22832dc4f",
    6: "93d788d93784c65bed054d57a1908157aafac0ec24a5763f48176fe3158d3069",
    7: "c408b21d5862a52495bd705e727eb536d8e6b93983de09eb872ee5571b5ec6fc",
}

SEEDS = 6
SITUATIONS = (1, 10, 64)


def members(mask, names):
    return [name for k, name in enumerate(names) if mask >> k & 1]


def body(table, atoms, sits):
    return {",".join(members(a, atoms)): members(t, sits) for a, t in enumerate(table) if t}


def write(path, kind, atoms, sits, payload):
    doc = {"kind": kind, "atoms": atoms, "situations": sits, "body": payload}
    path.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return str(path)


def tables(m, n, rng):
    """Cells, lower, upper and gap tables of a random basic assignment."""
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
    gap = [u & ~lo for lo, u in zip(lower, upper)]
    return cells, lower, upper, gap


def flipped(table, n, flips, rng):
    out = list(table)
    for _ in range(flips):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(n)
    return out


def documents(m, workdir):
    """Every document of m's corpus, written to ``workdir``."""
    atoms = [f"x{k + 1}" for k in range(m)]
    for seed in range(SEEDS):
        n = SITUATIONS[seed % len(SITUATIONS)]
        sits = [f"w{k + 1}" for k in range(n)]
        rng = random.Random(f"oracle-digests/{m}/{seed}")
        cells, lower, upper, gap = tables(m, n, rng)
        points = {w: rng.choice(atoms) for w in sits}
        for flips in range(4):
            stem = workdir / f"m{m}-s{seed}-f{flips}"
            side = rng.randrange(2)
            lo = flipped(lower, n, flips if side else 0, rng)
            up = flipped(upper, n, 0 if side else flips, rng)
            moved = dict(points)
            for _ in range(flips):
                moved[rng.choice(sits)] = rng.choice(atoms)
            yield write(stem.with_suffix(".assignment.json"), "assignment", atoms, sits,
                        body(flipped(cells, n, flips, rng), atoms, sits))
            yield write(stem.with_suffix(".interval.json"), "interval", atoms, sits,
                        {"lower": body(lo, atoms, sits), "upper": body(up, atoms, sits)})
            yield write(stem.with_suffix(".ambiguity.json"), "ambiguity", atoms, sits,
                        body(flipped(gap, n, flips, rng), atoms, sits))
            yield write(stem.with_suffix(".incidence.json"), "incidence", atoms, sits, moved)


def digest(m, workdir):
    sha = hashlib.sha256()
    for doc in documents(m, workdir):
        for fmt in ("text", "json"):
            code, out = run_command(["oracle", doc, "--format", fmt])
            sha.update(json.dumps([Path(doc).name, fmt, code, out]).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("m", sorted(EXPECTED))
def test_oracle_output_is_unchanged(m, tmp_path):
    assert digest(m, tmp_path) == EXPECTED[m]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for m in range(1, 8):
            print(f"    {m}: \"{digest(m, Path(tmp))}\",")
    sys.exit(0)
