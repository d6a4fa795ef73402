"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload fuzz-gate --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` next to this directory and driven only
through ``ambicalc.cli.run_command``.  With ``--trace 0`` the result carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a separate traced pass over the same operations (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import rules
import spans
from workloads import WORKLOADS, Failure

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_ROUNDS = 15

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("batch_s_p50", "s", "lower"),
    ("batch_s_tail", "s", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_s_per_item", "s", "lower"),
)

# untraced median latency of each command kind, reported with the per-layer metrics
COMMAND_KINDS = ("fuzz", "build", "check", "decompose", "belief", "check_valid", "check_faulty")
PER_LAYER = tuple(spans.PER_LAYER) + tuple(
    (f"cmd.{kind}_s_p50", "s", "lower") for kind in COMMAND_KINDS
)


def program_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "ambicalc" or k.startswith("ambicalc.")}


def import_program():
    """Import ``ambicalc`` afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in program_modules():
        del sys.modules[key]
    importlib.invalidate_caches()
    lib = importlib.import_module("ambicalc")
    importlib.import_module("ambicalc.cli")
    if not Path(lib.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ambicalc was imported from {lib.__file__}, not from {src}")
    return lib


def set_up(workload, seed: int, workdir: Path):
    """One set-up round: import the program afresh and make all of the run's
    inputs.  Returns the program, the batches and the round's time."""
    t0 = time.perf_counter()
    lib = import_program()
    batches = workload.prepare(lib, seed, workdir)
    return lib, batches, time.perf_counter() - t0


def spare_set_up(workload, seed: int, workdir: Path) -> float:
    """The time of one more set-up round.  Its program and inputs are dropped
    and the modules in use are put back."""
    in_use = program_modules()
    _, _, seconds = set_up(workload, seed, workdir)
    for key in program_modules():
        del sys.modules[key]
    sys.modules.update(in_use)
    gc.collect()
    return seconds


def cpu_seconds() -> float:
    """CPU time of this process (ns resolution) and of its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def digest(code, out: str, op) -> str:
    h = hashlib.sha256(f"{code}\n{out}".encode("utf-8"))
    for path in op.outputs:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Pass:
    """What one pass over the batches measured."""

    busy_s: float = 0.0
    batches: int = 0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    batch_latencies: list = field(default_factory=list)
    by_kind: dict = field(default_factory=lambda: defaultdict(list))
    # (latency, cpu) of each repetition, by (batch index, position in the batch)
    by_op: dict = field(default_factory=lambda: defaultdict(list))


def run_pass(lib, batches, *, seconds=None, count=None, check, between=None) -> Pass:
    """Run the batches in order, cycling, until ``seconds`` of time spent
    inside the program or exactly ``count`` batches.

    ``check(op, code, out, error)`` runs between operations, outside the
    timing, and returns a failure reason or None.  ``between(res)`` runs
    after each batch, outside the timing.
    """
    run_command = lib.cli.run_command
    res = Pass()
    gc.collect()
    while res.busy_s < seconds if count is None else res.batches < count:
        index = res.batches % len(batches)
        batch = batches[index]
        batch_s = 0.0
        for position, op in enumerate(batch.ops(res.batches // len(batches))):
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                code, out = run_command(list(op.argv))
                error = None
            except Exception:  # a traceback is a failed operation, not a crash
                code, out, error = None, "", traceback.format_exc()
            latency = time.perf_counter() - t0
            res.by_op[index, position].append((latency, cpu_seconds() - c0))
            res.busy_s += latency
            batch_s += latency
            res.by_kind[op.kind].append(latency)
            res.attempted += 1
            reason = check(op, code, out, error)
            if reason is not None:
                res.failed += 1
                if res.failed <= 5:
                    print(f"failed {op.kind} {' '.join(op.argv)}: {reason}", file=sys.stderr)
        res.batch_latencies.append(batch_s)
        res.batches += 1
        res.items += batch.size
        if between is not None:
            between(res)
    return res


def verifier(lib, digests: list | None = None):
    """Check each output against the workload's expectations, optionally
    recording output digests for a later pass to match."""

    def check(op, code, out, error):
        if digests is not None:
            digests.append(None if error else digest(code, out, op))
        if error is not None:
            return error.strip().splitlines()[-1]
        try:
            op.verify(lib, code, out)
        except Failure as exc:
            return str(exc)
        except Exception:  # an output the checks cannot read is a wrong output
            return traceback.format_exc().strip().splitlines()[-1]
        return None

    return check


def matcher(expected: list):
    """Check each output against the digest of the same operation in an earlier pass."""
    wanted = iter(expected)

    def check(op, code, out, error):
        want = next(wanted)
        if error is not None:
            return error.strip().splitlines()[-1]
        if want is None or digest(code, out, op) != want:
            return "output differs from the untraced pass"
        return None

    return check


def git_rev() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p50(values: list) -> float:
    return statistics.median(values) if values else 0.0


def detail(workload, values: dict, res: Pass) -> dict:
    """The workload's own figures, under the names the roadmap uses.

    The per-command latencies are taken over every operation of the pass.
    """
    out = {
        "setup_s": values["setup_s"],
        "failed_frac": res.failed / res.attempted,
        "peak_rss_mb": values["peak_rss_mb"],
        "trials_per_s" if workload.unit == "trials" else "docs_per_s": values["items_per_s"],
    }
    for kind, latencies in res.by_kind.items():
        out[f"{kind}_s_p50"] = p50(latencies)
    checks = res.by_kind.get("check_valid", []) + res.by_kind.get("check_faulty", [])
    if checks:
        pct, value, n = rules.tail(checks)
        out["check_s_tail"] = {"value": value, "percentile": pct, "samples": n}
    return out


def info(workload, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "ambig_threads": os.environ.get("AMBIG_THREADS"),
        "sizes": workload.sizes(),
    }


def measure(workload, lib, batches, seconds, setup_s, spare) -> tuple[dict, dict, Pass]:
    """The end-to-end metrics of one pass.

    ``setup_s`` is the time of the set-up round before the pass.  ``spare()``
    times one more round; the pass runs them spread over its length, so that
    the rounds meet different phases of the host, and ``setup_s`` becomes the
    median of ``SETUP_ROUNDS`` rounds.

    An operation's time and CPU time in the pass are ``workload.op_time`` of
    its repetitions; on check-mixed-m8 each repetition checks new renamed
    copies.  A batch's time is the sum over its operations.  The throughput,
    the median and the tail are taken over the distinct batches, so the tail
    ranks inputs rather than the host's slow phases (see README.md).
    """
    setup_times = [setup_s]

    def between(res):
        while len(setup_times) < SETUP_ROUNDS and (
            res.busy_s >= seconds * len(setup_times) / SETUP_ROUNDS
        ):
            setup_times.append(spare())

    res = run_pass(lib, batches, seconds=seconds, check=verifier(lib), between=between)
    while len(setup_times) < SETUP_ROUNDS:
        setup_times.append(spare())
    batch_s, batch_cpu = defaultdict(float), defaultdict(float)
    for (index, _), reps in res.by_op.items():
        batch_s[index] += workload.op_time([t for t, _ in reps])
        batch_cpu[index] += workload.op_time([c for _, c in reps])
    latencies = list(batch_s.values())
    items = sum(batches[index].size for index in batch_s)
    pct, tail_value, _ = rules.tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": items / sum(latencies),
        "batch_s_p50": statistics.median(latencies),
        "batch_s_tail": tail_value,
        "ok_frac": 1 - res.failed / res.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s_per_item": sum(batch_cpu.values()) / items,
    }
    extra = detail(workload, values, res)
    extra["batch_s_tail_percentile"] = pct
    extra["ops"] = res.attempted
    extra["batches"] = res.batches
    extra["distinct_batches"] = len(latencies)
    extra["setup_rounds_s"] = setup_times
    return values, extra, res


def measure_traced(workload, lib, batches, seconds, seed) -> tuple[dict, dict, list[Pass]]:
    """A verified pass, then its first batches replayed twice, untraced and
    traced, each checked against the outputs of the first pass.

    The replays cover the shortest prefix of the first pass that took a third
    of ``seconds``.  The overhead compares the two replays, which do the same
    work between operations; the first pass also runs the slower checks.
    """
    threads = os.environ.get("AMBIG_THREADS", "1") or "1"
    if threads != "1":
        raise SystemExit("the tracer follows one thread; unset AMBIG_THREADS to trace")
    digests: list = []
    first = run_pass(lib, batches, seconds=seconds, check=verifier(lib, digests))
    count, elapsed = 0, 0.0
    while count < first.batches and elapsed < seconds / 3:
        elapsed += first.batch_latencies[count]
        count += 1
    plain = run_pass(lib, batches, count=count, check=matcher(digests))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(lib, batches, count=count, check=matcher(digests))
    finally:
        tracer.uninstall()
    overhead = traced.busy_s / plain.busy_s
    values = spans.layer_metrics(tracer, traced.items, overhead)
    for kind in COMMAND_KINDS:
        values[f"cmd.{kind}_s_p50"] = p50(plain.by_kind.get(kind, []))
    path = OUT / f"spans-{workload.name}-seed{seed}.bin"
    tracer.save(path)
    extra = {
        "spans": len(tracer),
        "spans_file": str(path.relative_to(ROOT)),
        "untraced_s": plain.busy_s,
        "traced_s": traced.busy_s,
        "tracing_overhead": overhead,
        "batches": traced.batches,
        "traced_s_per_item": traced.busy_s / traced.items,
        "layer_self_sum_s_per_item": sum(values[f"{layer}.self_s"] for layer in spans.LAYERS),
    }
    return values, extra, [first, plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        try:
            lib, batches, setup_s = set_up(workload, args.seed, workdir)
        except (ImportError, Failure) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            values, extra, passes = measure_traced(
                workload, lib, batches, args.seconds, args.seed
            )
            attempted = sum(p.attempted for p in passes)
            failed = sum(p.failed for p in passes)
            spec = PER_LAYER
        else:
            spare_dir = workdir / "spare"
            spare_dir.mkdir()
            values, extra, res = measure(
                workload, lib, batches, args.seconds, setup_s,
                lambda: spare_set_up(workload, args.seed, spare_dir),
            )
            attempted, failed = res.attempted, res.failed
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"info": info(workload, args.seed, args.seconds, bool(args.trace)),
                      "detail": extra}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
