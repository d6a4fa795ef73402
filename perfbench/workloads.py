"""The benchmark's workloads: seeded inputs, the operations it times, and the
checks on their outputs.

Every input is made here from the run seed, with the benchmark's own code, so
a change to the program's generators cannot change what is measured.  Each
workload's ``prepare`` makes all of a run's inputs as a list of batches; it
is called once per set-up round and does the same work each time.  A batch is
a short list of ``run_command`` calls that completes ``size`` items: fuzz
trials or documents.  ``batch.ops(rep)`` gives the calls of the batch's
``rep``-th repetition in the run.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


def derive(*parts) -> int:
    """Stable 64-bit seed from a tuple of labels and ints."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Failure(Exception):
    """An operation returned a wrong exit code or a wrong output."""


@dataclass
class Op:
    kind: str
    argv: list[str]
    verify: Callable[[object, int, str], None]
    outputs: tuple[Path, ...] = ()


@dataclass
class Batch:
    """The same calls on every repetition."""

    calls: list[Op]
    size: int = 1

    def ops(self, rep: int) -> list[Op]:
        return self.calls


# --- documents, rendered by the benchmark in the program's canonical format


def names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(count)]


def members(mask: int, universe: list[str]) -> list[str]:
    return [name for k, name in enumerate(universe) if mask >> k & 1]


def map_body(table: list[int], atoms: list[str], sits: list[str]) -> dict:
    return {",".join(members(a, atoms)): members(t, sits) for a, t in enumerate(table) if t}


def render(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def random_cells(rng: random.Random, m: int, n: int) -> list[int]:
    """Each situation dropped into the cell of a uniform nonempty subset."""
    cells = [0] * (1 << m)
    for w in range(n):
        cells[rng.randrange(1, 1 << m)] |= 1 << w
    return cells


def lower_table(cells: list[int], m: int) -> list[int]:
    """lower(A) = union of the cells of all subsets of A (OR-zeta transform)."""
    t = list(cells)
    for k in range(m):
        bit = 1 << k
        for a in range(1 << m):
            if a & bit:
                t[a] |= t[a ^ bit]
    return t


def upper_table(lower: list[int], n: int) -> list[int]:
    full = len(lower) - 1
    omega = (1 << n) - 1
    return [omega ^ lower[full ^ a] for a in range(len(lower))]


def flip_bit(table: list[int], n: int, rng: random.Random) -> list[int]:
    out = list(table)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(n)
    return out


def make_document(
    kind: str, m: int, n: int, rng: random.Random, faulty: bool, label: str = ""
) -> str:
    """A valid ``kind`` document, or one with a single flipped bit; ``label``
    goes into every atom and situation name."""
    atoms, sits = names("x" + label, m), names("w" + label, n)
    cells = random_cells(rng, m, n)
    head = {"kind": kind, "atoms": atoms, "situations": sits}
    if kind == "assignment":
        table = flip_bit(cells, n, rng) if faulty else cells
        return render({**head, "body": map_body(table, atoms, sits)})
    lower = lower_table(cells, m)
    upper = upper_table(lower, n)
    if kind == "interval":
        if faulty:
            if rng.randrange(2):
                lower = flip_bit(lower, n, rng)
            else:
                upper = flip_bit(upper, n, rng)
        body = {"lower": map_body(lower, atoms, sits), "upper": map_body(upper, atoms, sits)}
        return render({**head, "body": body})
    if kind == "ambiguity":
        gap = [u & ~lo for lo, u in zip(lower, upper)]
        table = flip_bit(gap, n, rng) if faulty else gap
        return render({**head, "body": map_body(table, atoms, sits)})
    raise ValueError(f"no generator for {kind!r}")


def decode_map(body: dict, atoms: list[str], sits: list[str]) -> list[int]:
    """Dense table from a document body, independently of the program's parser."""
    atom_bit = {name: 1 << k for k, name in enumerate(atoms)}
    sit_bit = {name: 1 << k for k, name in enumerate(sits)}
    table = [0] * (1 << len(atoms))
    for key, image in body.items():
        mask = 0
        for name in key.split(",") if key else ():
            mask |= atom_bit[name]
        for name in image:
            table[mask] |= sit_bit[name]
    return table


def report_key(report: dict) -> tuple:
    """The agreement key of a ``check --format json`` report."""
    return tuple(
        (
            v["axiom"],
            v["ok"],
            (v["witness"]["A"], v["witness"]["B"], v["witness"]["situation"])
            if "witness" in v
            else None,
        )
        for v in report["verdicts"]
    )


def expect_code(code: int, wanted: int):
    if code != wanted:
        raise Failure(f"exit code {code}, expected {wanted}")


# --- fuzz-gate


class FuzzGate:
    """``ambicalc fuzz --trials 1000`` in the acceptance configuration.

    A run cycles through ``CALLS`` fuzz seeds, so each call repeats about
    twice.  The warm-up call uses a fixed seed: it is set-up, the same in
    every round and every run.
    """

    name = "fuzz-gate"
    unit = "trials"
    TRIALS = 1000
    CALLS = 4
    WARMUP_TRIALS = 20

    def sizes(self) -> dict:
        return {"m_max": 5, "n_max": 10, "selectors": 5, "trials_per_call": self.TRIALS,
                "distinct_calls": self.CALLS}

    @staticmethod
    def op_time(samples: list[float]) -> float:
        """The mean over a call's repetitions.  Each call lasts seconds and
        spans several of the host's fast and slow phases; the faster of two
        such calls spread more from run to run than their mean (README.md)."""
        return statistics.fmean(samples)

    def prepare(self, lib, seed: int, workdir: Path) -> list[Batch]:
        code, _ = lib.cli.run_command(["fuzz", "--seed", "0", "--trials", str(self.WARMUP_TRIALS)])
        if code != 0:
            raise Failure(f"warm-up fuzz run exited with {code}")
        batches = []
        for k in range(self.CALLS):
            fuzz_seed = derive(self.name, seed, k) % 10**9
            argv = ["fuzz", "--seed", str(fuzz_seed), "--trials", str(self.TRIALS)]
            batches.append(Batch([Op("fuzz", argv, self.verify)], size=self.TRIALS))
        return batches

    def verify(self, lib, code: int, out: str):
        expect_code(code, 0)
        lines = out.splitlines()
        if f"trials: {self.TRIALS}" not in lines or "failures: none" not in lines:
            raise Failure("fuzz report lacks the trial count or reports failures")
        start = lines.index("properties:") + 1
        props = [line for line in lines[start:] if line.startswith("  ")]
        if not props:
            raise Failure("fuzz report lists no properties")
        for line in props:
            if not line.endswith(f": pass={self.TRIALS} fail=0"):
                raise Failure(f"property did not pass on every trial: {line.strip()}")


# --- cli-m12


class PipelineDoc:
    """One m=12 assignment and probability, with the checks of its pipeline."""

    def __init__(self, directory: Path, m: int, n: int, rng: random.Random):
        self.dir = directory
        self.atoms, self.sits = names("x", m), names("w", n)
        cells = random_cells(rng, m, n)
        self.weights = [rng.randint(1, 1000) for _ in range(n)]
        total = sum(self.weights)
        directory.mkdir(parents=True, exist_ok=True)
        head = {"kind": "assignment", "atoms": self.atoms, "situations": self.sits}
        self.assignment = self.dir / "assignment.json"
        self.assignment.write_text(
            render({**head, "body": map_body(cells, self.atoms, self.sits)}), encoding="utf-8"
        )
        prob = {
            "kind": "probability",
            "situations": self.sits,
            "body": {s: str(Fraction(w, total)) for s, w in zip(self.sits, self.weights)},
        }
        self.probability = self.dir / "probability.json"
        self.probability.write_text(render(prob), encoding="utf-8")
        self.structure = self.dir / "structure.json"
        self.incidence = self.dir / "incidence.json"
        self.ambiguity = self.dir / "ambiguity.json"
        self._expected = None

    def ops(self) -> list[Op]:
        s = str(self.structure)
        return [
            Op("build", ["build", str(self.assignment), "--out", s], self.verify_build,
               (self.structure,)),
            Op("check", ["check", s, "--format", "json"], self.verify_check),
            Op(
                "decompose",
                ["decompose", s, "--out-incidence", str(self.incidence),
                 "--out-ambiguity", str(self.ambiguity)],
                self.verify_decompose,
                (self.incidence, self.ambiguity),
            ),
            Op("belief", ["belief", s, str(self.probability), "--format", "json"],
               self.verify_belief),
        ]

    def expected(self, lib) -> tuple[list[int], list[int]]:
        """The lower table from the program's naive oracle, computed once, and
        its complement-dual as the upper table.

        On a partition the dual equals ``oracle_upper_table``, which takes
        ten times as long at m=12.
        """
        if self._expected is None:
            _, j = lib.loads(self.assignment.read_text(encoding="utf-8"))
            lower = list(lib.oracle_lower_table(j))
            self._expected = (lower, upper_table(lower, len(self.sits)))
        return self._expected

    def verify_build(self, lib, code: int, out: str):
        expect_code(code, 0)
        doc = json.loads(self.structure.read_text(encoding="utf-8"))
        lower = decode_map(doc["body"]["lower"], self.atoms, self.sits)
        upper = decode_map(doc["body"]["upper"], self.atoms, self.sits)
        if (lower, upper) != self.expected(lib):
            raise Failure("built tables differ from the oracle tables")

    def verify_check(self, lib, code: int, out: str):
        expect_code(code, 0)
        report = json.loads(out)
        if not report["ok"] or not all(v["ok"] for v in report["verdicts"]):
            raise Failure("a built structure failed its own check")

    def verify_decompose(self, lib, code: int, out: str):
        expect_code(code, 0)
        inc = json.loads(self.incidence.read_text(encoding="utf-8"))["body"]
        amb = json.loads(self.ambiguity.read_text(encoding="utf-8"))["body"]
        gap = decode_map(amb, self.atoms, self.sits)
        atom_cells = [0] * len(self.atoms)
        for w, sit in enumerate(self.sits):
            atom_cells[self.atoms.index(inc[sit])] |= 1 << w
        lower, upper = self.expected(lib)
        omega = (1 << len(self.sits)) - 1
        for a in range(len(lower)):
            i = 0
            for k, cell in enumerate(atom_cells):
                if a >> k & 1:
                    i |= cell
            if upper[a] != i | gap[a] or lower[a] != i & (omega ^ gap[a]):
                raise Failure(f"decomposition identities fail at subset mask {a}")

    def verify_belief(self, lib, code: int, out: str):
        expect_code(code, 0)
        payload = json.loads(out)
        lower, upper = self.expected(lib)
        total = sum(self.weights)

        def prob(mask: int) -> Fraction:
            return Fraction(sum(w for k, w in enumerate(self.weights) if mask >> k & 1), total)

        rows = payload["belief"]
        if len(rows) != len(lower) or not payload["identity"]["ok"]:
            raise Failure("belief output is incomplete or fails its identity check")
        for a in range(len(lower)):
            row = rows[",".join(members(a, self.atoms))]
            if Fraction(row["bel"]) != prob(lower[a]) or Fraction(row["pl"]) != prob(upper[a]):
                raise Failure(f"Bel or Pl differs from P(lower) or P(upper) at mask {a}")


class CliM12:
    """build -> check -> decompose -> belief on generated m=12, n=64 documents."""

    name = "cli-m12"
    unit = "documents"
    M, N = 12, 64
    DOCS = 2

    def sizes(self) -> dict:
        return {"m": self.M, "n": self.N, "documents": self.DOCS, "commands_per_document": 4}

    op_time = FuzzGate.op_time

    def prepare(self, lib, seed: int, workdir: Path) -> list[Batch]:
        batches = []
        for k in range(self.DOCS):
            rng = random.Random(derive(self.name, seed, k))
            doc = PipelineDoc(workdir / f"doc-{k}", self.M, self.N, rng)
            batches.append(Batch(doc.ops()))
        return batches


# --- check-mixed-m8


TAG = "AAAA"


def tag(rep: int) -> str:
    """Four capital letters, distinct for the first 26**4 repetitions."""
    out = ""
    for _ in range(len(TAG)):
        rep, k = divmod(rep, 26)
        out = chr(ord("A") + k) + out
    return out


class CheckDoc:
    """One check input with its expected exit code and oracle verdicts.

    Every repetition checks a renamed copy of the document: ``TAG`` in each
    atom and situation name becomes the repetition's tag.  The copies keep
    the names' lengths and declaration order, so they encode the same masks,
    give the same verdicts and cost the same to check.
    """

    def __init__(self, name: str, text: str, faulty: bool):
        self.name = name
        self.text = text
        self.faulty = faulty
        self._expected = None

    def copy(self, rep: int) -> str:
        return self.text.replace(TAG, tag(rep))

    def verify(self, lib, code: int, out: str):
        if self._expected is None:
            _, obj = lib.loads(self.text)
            oracle = lib.oracle_verify(obj)
            if oracle.ok == self.faulty:
                raise Failure(f"{self.name}: the oracle disagrees with its validity label")
            self._expected = oracle.agreement_key()
        expect_code(code, 1 if self.faulty else 0)
        if report_key(json.loads(out)) != self._expected:
            raise Failure(f"{self.name}: verdicts differ from the oracle's")


class CheckBatch:
    """Checks of one document of each kind, valid and faulty.

    Each repetition writes renamed copies to new files and removes the
    previous repetition's, so no file path or document text repeats in a run.
    """

    def __init__(self, docs: list[CheckDoc], workdir: Path):
        self.docs = docs
        self.dir = workdir
        self.size = len(docs)
        self._written: list[Path] = []

    def ops(self, rep: int) -> list[Op]:
        for path in self._written:
            path.unlink(missing_ok=True)
        self._written = []
        ops = []
        for doc in self.docs:
            path = self.dir / f"{doc.name}-{rep}.json"
            path.write_text(doc.copy(rep), encoding="utf-8")
            self._written.append(path)
            kind = "check_faulty" if doc.faulty else "check_valid"
            ops.append(Op(kind, ["check", str(path), "--format", "json"], doc.verify))
        return ops


class CheckMixedM8:
    """``check --format json`` on valid and one-bit-faulty m=8, n=64 documents.

    A batch holds one document of each kind, valid and faulty, so that
    every batch does the same mix of work.
    """

    name = "check-mixed-m8"
    unit = "documents"
    M, N = 8, 64
    KINDS = ("assignment", "interval", "ambiguity")
    BATCHES = 9

    def sizes(self) -> dict:
        return {"m": self.M, "n": self.N, "kinds": list(self.KINDS), "faulty_share": 0.5,
                "documents_per_batch": 2 * len(self.KINDS), "distinct_batches": self.BATCHES}

    @staticmethod
    def op_time(samples: list[float]) -> float:
        """The second-fastest of the renamed copies of one document checked in
        the run, about forty.  A check lasts milliseconds, so some copies run
        wholly in the host's fast phases; their time moves far less with the
        host's minute-long drift than the median does (README.md)."""
        return sorted(samples)[min(1, len(samples) - 1)]

    def prepare(self, lib, seed: int, workdir: Path) -> list[CheckBatch]:
        batches = []
        for k in range(self.BATCHES):
            docs = []
            for kind in self.KINDS:
                for faulty in (False, True):
                    rng = random.Random(derive(self.name, seed, k, kind, faulty))
                    text = make_document(kind, self.M, self.N, rng, faulty, TAG)
                    docs.append(CheckDoc(f"{kind}-{k}-{'faulty' if faulty else 'valid'}",
                                         text, faulty))
            batches.append(CheckBatch(docs, workdir))
        return batches


WORKLOADS = {w.name: w for w in (FuzzGate(), CliM12(), CheckMixedM8())}
