"""``check`` and ``compose`` output, byte for byte, on a seeded m=1–9 corpus.

Every document here is made by this module from its seed: a random basic
assignment, its lower and upper tables and their gap, each written valid and
with 1, 2 and 3 flipped bits.  Each m has one SHA-256 digest over the exit
code and output of ``check --format text|json`` on every document, and of
``compose`` on incompatible incidence/ambiguity pairs.  Incidence documents,
valid and with each kind of fault a point map can have, have their own
digest per m.  The digests were
recorded with the ascending pair scans as the witness search, so they pin
every verdict, witness and detail text of the faster search; m=9 is above
the scan limit, where a witness is the pair the exact test derives, as is
the pair that ``compose`` names for compatibility at every m.

    PYTHONPATH=src python tests/test_check_digests.py

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
    1: "61302e0efd7df79df6c80fd22af09ec3eced1d3ead083ad64c9050a91b705016",
    2: "4d2795129d0a89e3cc51ca75fbcfbe37af522bf034b21c934c9eab5c25301678",
    3: "c8189ce4d04e32ad052de43ce49ec8d2243a18d4665c20ba95200ac2af975779",
    4: "4b27e03f65e8030ba70a4965928c45fa417ab6569c58e6e7712c27342462e725",
    5: "ed4c501489de7290bf2e62278894323915fa4e75d85e8e13a1d8cf987a78d131",
    6: "53c5285c770531b34c9ac1550ee70cb153ecec486da2970c458b7d562e2e025f",
    7: "4d342638d594aad7fb00cf6b431bb94a0d2ffcd4f70f1f4bec54571c38662f94",
    8: "55d3cfb68c9d56bfee37adb7a530820cc1f96ab4daed7e35a912f58a52d6f146",
    9: "6b2be6152f7c4a2d83c40c565e7ea2384297785cdfad83d07cbaebbf61b883c7",
}

INCIDENCE_EXPECTED = {
    1: "baceec18f3c9e27133b81832361dad7e0e3eb8afdc345eba5dbda951fd6c3dc5",
    2: "af1f78d73d0956d22683952fb6c889436c6ad55da6aed0e3985de8b0bce55605",
    3: "adfbdfde5232a7446d9fa156aeb899a6137222ef65210a458f7077fac5e7efbe",
    4: "55bbbad08fb34c92e1a399d5a9aaafa47dcd50d11c91a35876365cf02858228e",
    5: "ff2a210d221cbb60e4003309630e21045d5e7dfc5f0ec7bd2366f90e44cb0939",
    6: "1e89354210811028e8ee6a3b9c2a7357aaedfd47fdc00b61312b5aa354b61912",
    7: "3f14e18ad0f523b0c7b2ace91bf6eb17e4940bcc5c06f7bb058235dec75b6dc4",
    8: "c1ea93dd43a3eaba1eac2767df2f67af7a8044a72697977512a593f04f57a5c4",
    9: "1ae44b3b8d375302261d2f7e290f56c1a02ee9c09a3e4b0fa3831b5444dec57f",
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


def calls(m, workdir):
    """Every argv of m's corpus, with the documents written to ``workdir``."""
    atoms = [f"x{k + 1}" for k in range(m)]
    for seed in range(SEEDS):
        n = SITUATIONS[seed % len(SITUATIONS)]
        sits = [f"w{k + 1}" for k in range(n)]
        rng = random.Random(f"check-digests/{m}/{seed}")
        cells, lower, upper, gap = tables(m, n, rng)
        for flips in range(4):
            stem = workdir / f"m{m}-s{seed}-f{flips}"
            side = rng.randrange(2)
            lo = flipped(lower, n, flips if side else 0, rng)
            up = flipped(upper, n, 0 if side else flips, rng)
            docs = [
                write(stem.with_suffix(".assignment.json"), "assignment", atoms, sits,
                      body(flipped(cells, n, flips, rng), atoms, sits)),
                write(stem.with_suffix(".interval.json"), "interval", atoms, sits,
                      {"lower": body(lo, atoms, sits), "upper": body(up, atoms, sits)}),
                write(stem.with_suffix(".ambiguity.json"), "ambiguity", atoms, sits,
                      body(flipped(gap, n, flips, rng), atoms, sits)),
            ]
            for doc in docs:
                for fmt in ("text", "json"):
                    yield ["check", doc, "--format", fmt]
        # a point map drawn apart from the assignment is rarely compatible
        # with its gap; a flipped gap fails the ambiguity guard first
        points = {w: rng.choice(atoms) for w in sits}
        payload = {"kind": "incidence", "atoms": atoms, "situations": sits, "body": points}
        incidence = workdir / f"m{m}-s{seed}.incidence.json"
        incidence.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        for flips in (0, 1):
            amb = write(workdir / f"m{m}-s{seed}-c{flips}.ambiguity.json", "ambiguity",
                        atoms, sits, body(flipped(gap, n, flips, rng), atoms, sits))
            yield ["compose", str(incidence), amb]


def incidence_calls(m, workdir):
    """``check`` of m's incidence documents: each point map valid, then
    missing a situation, sending one to an unknown atom or to a non-string,
    and naming an unknown situation."""
    atoms = [f"x{k + 1}" for k in range(m)]
    for seed in range(SEEDS):
        n = SITUATIONS[seed % len(SITUATIONS)]
        sits = [f"w{k + 1}" for k in range(n)]
        rng = random.Random(f"check-digests/incidence/{m}/{seed}")
        points = {w: rng.choice(atoms) for w in sits}
        victim = rng.choice(sits)
        faults = {
            "valid": {},
            "missing": {victim: None},
            "unknown-atom": {victim: f"x{m + 1}"},
            "not-a-string": {victim: 1},
            "unknown-situation": {f"w{n + 1}": atoms[0]},
        }
        for name, change in faults.items():
            body = {**points, **change}
            body = {w: x for w, x in body.items() if x is not None}
            path = workdir / f"m{m}-s{seed}-{name}.incidence.json"
            doc = write(path, "incidence", atoms, sits, body)
            for fmt in ("text", "json"):
                yield ["check", doc, "--format", fmt]


def digest(m, workdir, corpus=calls):
    sha = hashlib.sha256()
    for argv in corpus(m, workdir):
        code, out = run_command(argv)
        label = [Path(arg).name if arg.endswith(".json") else arg for arg in argv]
        sha.update(json.dumps([label, code, out.replace(str(workdir), "")]).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("m", sorted(EXPECTED))
def test_check_and_compose_output_is_unchanged(m, tmp_path):
    assert digest(m, tmp_path) == EXPECTED[m]


@pytest.mark.parametrize("m", sorted(INCIDENCE_EXPECTED))
def test_check_output_on_incidence_documents_is_unchanged(m, tmp_path):
    assert digest(m, tmp_path, incidence_calls) == INCIDENCE_EXPECTED[m]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for m in sorted(EXPECTED):
            print(f"    {m}: \"{digest(m, Path(tmp))}\",")
        for m in sorted(INCIDENCE_EXPECTED):
            print(f"    {m}: \"{digest(m, Path(tmp), incidence_calls)}\",")
    sys.exit(0)
