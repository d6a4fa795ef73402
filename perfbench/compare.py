"""Compare two checkouts, or measure the spread of one, with the benchmark.

    # ten alternating pairs of parent and change runs, then the verdicts
    python3 perfbench/compare.py pairs --parent ../parent --change . --workload cli-m12
    # ten seeds on this checkout: median, quartiles and spread of each metric
    python3 perfbench/compare.py spread --workload fuzz-gate --runs 10

Each run is the checkout's own ``BENCHMARK.json`` command, started with that
checkout as its working directory.  ``pairs`` refuses checkouts whose
benchmark files differ, because both sides must be measured by the same code.
The verdicts follow ``rules.judge_metric``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import rules

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def load_benchmark(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark_digest(checkout: Path) -> str:
    """Hash of BENCHMARK.json and every file under its paths, ignoring outputs."""
    bench = load_benchmark(checkout)
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for rel in sorted(bench["paths"]):
        for path in sorted((checkout / rel).rglob("*")):
            parts = path.relative_to(checkout / rel).parts
            if path.is_file() and "out" not in parts[:1] and "__pycache__" not in parts:
                h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def invoke(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One benchmark run; returns its result line and its info line."""
    bench = load_benchmark(checkout)
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited with {proc.returncode}: {proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    info = json.loads(lines[-2]) if len(lines) > 1 else {}
    return {"result": result, **info}


def judge(records: list[dict], bench: dict) -> list[dict]:
    """Verdict rows for every end-to-end metric of every workload in ``records``."""
    rows = []
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        by_pair: dict[int, dict] = {}
        for r in runs:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
        failed = {
            side: sum(sides[side]["failed"] for sides in complete) for side in ("parent", "change")
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pairs = [
                (s["parent"]["metrics"][name]["value"], s["change"]["metrics"][name]["value"])
                for s in complete
            ]
            if not pairs:
                continue
            verdict = rules.judge_metric(
                pairs, metric["better"], metric["bound"], failed["parent"], failed["change"]
            )
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], **verdict})
    return rows


def print_rows(rows: list[dict]):
    print(f"{'workload':16} {'metric':16} {'parent p50':>12} {'change p50':>12} "
          f"{'wins':>6} {'worse':>7} {'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        print(
            f"{r['workload']:16} {r['metric']:16} {r['parent_median']:12.5g} "
            f"{r['change_median']:12.5g} {r['wins']:>3}/{r['pairs']:<2} "
            f"{r['worse_by']:7.3f} {r['spread']:7.3f} {r['bound']:6.2f}  {r['verdict']}"
        )


def cmd_pairs(args) -> int:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    if benchmark_digest(parent) != benchmark_digest(change):
        print("the two checkouts carry different benchmark files; compare with one benchmark",
              file=sys.stderr)
        return 2
    bench = load_benchmark(change)
    seconds = args.seconds or bench["run_seconds"]
    records = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = (("parent", parent), ("change", change))
        if k % 2:
            order = order[::-1]
        for position, (side, checkout) in enumerate(order):
            run = invoke(checkout, args.workload, seed, seconds)
            records.append({"workload": args.workload, "pair": k, "side": side,
                            "first": position == 0, "seed": seed, **run})
            print(f"pair {k} {side}: done", file=sys.stderr)
    rows = judge(records, bench)
    print_rows(rows)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


def cmd_spread(args) -> int:
    checkout = Path(args.checkout).resolve()
    bench = load_benchmark(checkout)
    seconds = args.seconds or bench["run_seconds"]
    records = []
    for k in range(args.runs):
        run = invoke(checkout, args.workload, args.seed + k, seconds)
        records.append({"workload": args.workload, "seed": args.seed + k, **run})
        print(f"run {k}: done", file=sys.stderr)
    wide = False
    print(f"{args.workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}")
    for metric in bench["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in records]
        q1, med, q3 = rules.quartiles(values)
        spread = rules.relative_iqr(values)
        flag = ""
        if spread > metric["bound"]:
            flag, wide = "  wider than bound", True
        elif spread > metric["bound"] / 3:
            flag = "  above a third of bound"
        print(f"  {metric['name']:16} median {med:12.6g} {metric['unit']:6} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f} bound {metric['bound']}{flag}")
    return 1 if wide else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="alternating parent/change runs, then the verdicts")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=rules.MIN_PAIRS)
    p.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    p.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    p.set_defaults(func=cmd_pairs)
    p = sub.add_parser("spread", help="one checkout over several seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--checkout", default=str(ROOT))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    p.set_defaults(func=cmd_spread)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
