"""Run every workload once and print all of its metrics, by name and with units.

    python3 perfbench/summary.py --seed 1 [--seconds 40] [--trace]

The first table holds the end-to-end metrics of BENCHMARK.json; the second
the per-workload figures under the names the roadmap uses, with "-" where a
figure does not apply to a workload.  ``--trace`` adds a traced run of each
workload and prints its per-layer metrics.
"""

from __future__ import annotations

import argparse
import sys

from compare import ROOT, invoke, load_benchmark
from workloads import WORKLOADS

# roadmap name -> unit
FIGURES = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("docs_per_s", "1/s"),
    ("build_s_p50", "s"),
    ("check_s_p50", "s"),
    ("decompose_s_p50", "s"),
    ("belief_s_p50", "s"),
    ("check_valid_s_p50", "s"),
    ("check_faulty_s_p50", "s"),
    ("check_s_tail", "s"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, dict):
        return f"{value['value']:.6g} (p{value['percentile']} of {value['samples']})"
    return f"{value:.6g}"


def table(title: str, rows: list[tuple[str, str]], columns: dict[str, dict]):
    names = list(columns)
    print(title)
    print(f"  {'metric':32} {'unit':10} " + " ".join(f"{n:>24}" for n in names))
    for name, unit in rows:
        cells = " ".join(f"{cell(columns[n].get(name)):>24}" for n in names)
        print(f"  {name:32} {unit:10} {cells}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    parser.add_argument("--trace", action="store_true", help="also run and print the traced pass")
    args = parser.parse_args(argv)
    bench = load_benchmark(ROOT)
    seconds = args.seconds or bench["run_seconds"]
    workloads = list(WORKLOADS)

    end_to_end, figures, layers, overhead = {}, {}, {}, {}
    for name in workloads:
        run = invoke(ROOT, name, args.seed, seconds)
        end_to_end[name] = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        figures[name] = run["detail"]
        print(f"{name}: {run['result']['attempted']} operations, "
              f"{run['result']['failed']} failed", file=sys.stderr)
        if args.trace:
            traced = invoke(ROOT, name, args.seed, seconds, trace=1)
            layers[name] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            overhead[name] = traced["detail"]
    info = run["info"]
    print(f"python {info['python'].split()[0]}, {info['cpu_count']} CPUs, "
          f"rev {info['git_rev'][:12]}, seed {args.seed}, {seconds} s per run")
    listed = {w["name"] for w in bench["workloads"]}
    print("not in BENCHMARK.json:", ", ".join(n for n in workloads if n not in listed) or "none")
    print()
    table("end-to-end metrics (BENCHMARK.json)",
          [(m["name"], m["unit"]) for m in bench["end_to_end"]], end_to_end)
    table("workload figures", list(FIGURES), figures)
    if args.trace:
        table("per-layer metrics (traced pass, per item)",
              [(m["name"], m["unit"]) for m in bench["per_layer"]], layers)
        for name, d in overhead.items():
            print(f"{name}: tracing overhead {d['tracing_overhead']:.3f} "
                  f"({d['traced_s']:.3f} s traced against {d['untraced_s']:.3f} s untraced, "
                  f"{d['spans']} spans in {d['spans_file']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
