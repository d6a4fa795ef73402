"""Tests of the benchmark's own arithmetic, tracing and input generation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import random
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import rules  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --- self time


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0,10]; a [1,4] holds g [2,3]; b [3.5,6] overlaps a; c [9,12] runs past the root
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.5, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    # the root's children cover [1,6] and [9,10]
    assert spans.self_times(parent, start, end) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_records_nested_calls():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "numeric.inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "harness.outer")()
    # outer 0..5 holds inner 1..2 and 3..4
    assert list(tracer.parent) == [-1, 0, 0]
    agg = spans.aggregate(tracer)
    assert agg["by_name"]["harness.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert agg["by_name"]["numeric.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert agg["root_s"] == 5.0


def test_spans_file_round_trips(tmp_path):
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(lambda: None, "cli.run_command")()
    tracer.counts["documents.bytes"] += 7
    tracer.save(tmp_path / "spans.bin")
    back = spans.load(tmp_path / "spans.bin")
    assert back.names == tracer.names
    assert list(back.start) == list(tracer.start) and list(back.end) == list(tracer.end)
    assert back.counts["documents.bytes"] == 7


def test_pairs_scanned_matches_the_exhaustive_walk():
    size = 8
    for hit in [(0, 0), (0, 5), (2, 3), (7, 7)]:
        visited = 0
        for a in range(size):
            for b in range(a, size):
                visited += 1
                if (a, b) == hit:
                    break
            else:
                continue
            break
        assert spans.pairs_scanned(size, None, hit) == visited
    assert spans.pairs_scanned(size, None, None) == size * (size + 1) // 2
    assert spans.pairs_scanned(size, [(1, 2), (3, 4), (3, 4)], (3, 4)) == 2


def test_overlap_pairs_scanned_matches_the_overlap_sweep():
    sweeps = fresh_program().sweeps
    size = 16
    rng = random.Random(3)
    for _ in range(50):
        t = [rng.choice([0, 0, 1 << rng.randrange(6)]) for _ in range(size)]
        visited = []
        probe = [_Probe(image, visited, a) for a, image in enumerate(t)]
        hit = sweeps.first_overlap_violation(probe, size, None)
        assert spans.overlap_pairs_scanned(t, size, None, hit) == len(visited)
    assert spans.overlap_pairs_scanned([1, 1], 2, [(0, 0), (0, 1)], (0, 1)) == 2


class _Probe(int):
    """A table entry that logs (A, B) whenever the sweep intersects row A's image with B's."""

    def __new__(cls, image, log, index):
        obj = super().__new__(cls, image)
        obj.log, obj.index = log, index
        return obj

    def __and__(self, other):
        self.log.append((self.index, other.index))
        return int(self) & int(other)


def fresh_program():
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in sys.modules if k == "ambicalc" or k.startswith("ambicalc.")]:
        del sys.modules[key]
    lib = importlib.import_module("ambicalc")
    importlib.import_module("ambicalc.cli")
    return lib


def test_tracer_wraps_every_layer_and_restores_it():
    lib = fresh_program()
    originals = (lib.harness.gen_assignment, lib.interval.SetValuedMap.__post_init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lib.harness.gen_assignment is not originals[0]
        j = lib.gen_assignment(lib.GenConfig(m=3, n=4, seed=1))
        lib.structure_from_assignment(j)
    finally:
        tracer.uninstall()
    assert (lib.harness.gen_assignment, lib.interval.SetValuedMap.__post_init__) == originals
    agg = spans.aggregate(tracer)
    assert agg["by_name"]["harness.gen_assignment"]["calls"] == 1
    assert agg["by_name"]["interval.SetValuedMap.__post_init__"]["calls"] >= 3
    # check_assignment directly under structure_from_assignment is a re-check
    assert agg["recheck_s"] > 0
    metrics = spans.layer_metrics(tracer, items=1, overhead=1.0)
    assert {name for name, _, _ in spans.PER_LAYER} == set(metrics)


# --- tail percentile


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert rules.tail(list(range(1, 1001))) == (99, 990, 1000)
    assert rules.tail(list(range(100))) == (90, 89, 100)
    assert rules.tail(list(range(20)))[0] == 50
    assert rules.tail([3.0, 1.0, 2.0]) == (100, 3.0, 3)


def test_a_check_counts_at_its_second_fastest_repetition():
    # each call sleeps for the seconds it names; one repetition in ten of
    # batch 0's second call is slow, and the second-fastest leaves it out
    def run_command(argv):
        time.sleep(float(argv[0]))
        return 0, ""

    def accept(lib, code, out):
        pass

    def batch(first, second, slow_every=0):
        def ops(rep):
            slow = slow_every and rep % slow_every == slow_every - 1
            return [workloads.Op("a", [str(first)], accept),
                    workloads.Op("b", [str(0.2 if slow else second)], accept)]
        return SimpleNamespace(ops=ops, size=2)

    lib = SimpleNamespace(cli=SimpleNamespace(run_command=run_command))
    batches = [batch(0.01, 0.01, slow_every=10), batch(0.02, 0.01)]
    workload = SimpleNamespace(unit="documents", op_time=workloads.CheckMixedM8.op_time)
    values, extra, res = run.measure(workload, lib, batches, 1.0, 0.5, lambda: 0.5)
    assert res.batches >= 20 and extra["distinct_batches"] == 2
    assert values["setup_s"] == 0.5 and values["ok_frac"] == 1
    # batch 0 takes 0.02 s and batch 1 0.03 s; the slow repetition would make
    # batch 0 the slower one
    assert 0.03 <= values["batch_s_tail"] < 0.036
    assert 0.025 <= values["batch_s_p50"] < 0.031
    assert values["items_per_s"] == pytest.approx(4 / (2 * values["batch_s_p50"]))
    assert workloads.CheckMixedM8.op_time([3.0, 1.0, 2.0]) == 2.0
    assert workloads.CheckMixedM8.op_time([3.0]) == 3.0


# --- comparison rule


def noisy(center: float, width: float, seed: int, n: int = 10) -> list[float]:
    rng = random.Random(seed)
    return [center + rng.uniform(-width, width) for _ in range(n)]


def test_clear_speedup_is_a_gain():
    pairs = list(zip(noisy(10.0, 0.2, 1), noisy(8.0, 0.2, 2)))
    assert rules.judge_metric(pairs, "lower", 0.1)["verdict"] == "gain"
    rates = [(1 / p, 1 / c) for p, c in pairs]
    assert rules.judge_metric(rates, "higher", 0.1)["verdict"] == "gain"


def test_gain_needs_nine_wins_in_ten_and_ten_pairs():
    parent = noisy(10.0, 0.2, 3)
    change = [v - 2.0 for v in parent]
    change[0] += 5.0
    change[1] += 5.0
    assert rules.judge_metric(list(zip(parent, change)), "lower", 1.0)["verdict"] == "unchanged"
    short = list(zip(noisy(10.0, 0.2, 1, 9), noisy(8.0, 0.2, 2, 9)))
    assert rules.judge_metric(short, "lower", 0.1)["verdict"] == "unchanged"


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0, 20.0]
    change = [9.9] * 10
    verdict = rules.judge_metric(list(zip(parent, change)), "lower", 1.0)
    assert verdict["wins"] == 10 and verdict["verdict"] == "unchanged"


def test_gain_is_void_when_more_operations_fail():
    pairs = list(zip(noisy(10.0, 0.2, 1), noisy(8.0, 0.2, 2)))
    verdict = rules.judge_metric(pairs, "lower", 0.1, parent_failed=0, change_failed=1)
    assert verdict["verdict"] == "unchanged"


def test_slowdown_beyond_the_bound_is_a_regression():
    pairs = list(zip(noisy(10.0, 0.1, 1), noisy(13.0, 0.1, 2)))
    assert rules.judge_metric(pairs, "lower", 0.2)["verdict"] == "regression"
    assert rules.judge_metric(pairs, "lower", 0.4)["verdict"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [6.0, 8.0, 10.0, 12.0, 14.0] * 2
    change = [14.0, 6.0, 12.0, 8.0, 10.0] * 2
    assert rules.judge_metric(list(zip(parent, change)), "lower", 0.1)["verdict"] == "unresolved"
    # unless every change run reads better than every parent run
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0, 20.0]
    assert rules.judge_metric(list(zip(parent, [9.9] * 10)), "lower", 0.1)["verdict"] == "unchanged"


def test_judge_pairs_runs_by_side():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for k, (p, c) in enumerate(zip(noisy(10.0, 0.2, 1), noisy(8.0, 0.2, 2))):
        for side, value in (("parent", p), ("change", c)):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
            metrics["batch_s_p50"]["value"] = value
            records.append({"workload": "w", "pair": k, "side": side,
                            "result": {"failed": 0, "metrics": metrics}})
    rows = {r["metric"]: r["verdict"] for r in compare.judge(records, bench)}
    assert rows["batch_s_p50"] == "gain"
    assert rows["ok_frac"] == "unchanged"


# --- generated inputs


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["cli-m12", "check-mixed-m8"])
def test_document_workloads_are_a_function_of_the_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    made = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / label
        directory.mkdir()
        batches = workload.prepare(None, seed, directory)
        argv = [[arg.replace(str(directory), "") for arg in op.argv]
                for batch in batches for op in batch.ops(0)]
        made[label] = (snapshot(directory), argv)
    assert made["a"] == made["b"]
    assert made["a"][0] != made["c"][0]


def test_fuzz_seeds_are_a_function_of_the_seed(tmp_path):
    lib = SimpleNamespace(cli=SimpleNamespace(run_command=lambda argv: (0, "")))
    gate = workloads.WORKLOADS["fuzz-gate"]

    def argvs(seed):
        return [op.argv for batch in gate.prepare(lib, seed, tmp_path) for op in batch.ops(0)]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)


def test_renamed_copies_are_new_inputs_with_the_same_verdicts(tmp_path):
    lib = fresh_program()
    docs = []
    for kind in workloads.CheckMixedM8.KINDS:
        for faulty in (False, True):
            rng = random.Random(workloads.derive("copies", kind, faulty))
            text = workloads.make_document(kind, 4, 6, rng, faulty, workloads.TAG)
            docs.append(workloads.CheckDoc(f"{kind}-{faulty}", text, faulty))
    batch = workloads.CheckBatch(docs, tmp_path)
    seen_paths, seen_texts = set(), set()
    for rep in (0, 1, 27, 26**4 - 1):
        for op in batch.ops(rep):
            path = Path(op.argv[1])
            text = path.read_text(encoding="utf-8")
            assert path not in seen_paths and text not in seen_texts
            seen_paths.add(path)
            seen_texts.add(text)
            code, out = lib.cli.run_command(op.argv)
            op.verify(lib, code, out)
    # only the last repetition's files are left
    assert len(list(tmp_path.iterdir())) == len(docs)


def test_spare_set_up_puts_the_program_in_use_back(tmp_path):
    workload = workloads.WORKLOADS["check-mixed-m8"]
    lib, batches, seconds = run.set_up(workload, 5, tmp_path)
    in_use = run.program_modules()
    assert seconds > 0 and len(batches) == workload.BATCHES
    assert run.spare_set_up(workload, 5, tmp_path) > 0
    assert run.program_modules() == in_use and sys.modules["ambicalc"] is lib


def test_generated_documents_match_their_validity_label():
    lib = fresh_program()
    for kind in workloads.CheckMixedM8.KINDS:
        for faulty in (False, True):
            rng = random.Random(workloads.derive("test", kind, faulty))
            text = workloads.make_document(kind, 4, 6, rng, faulty)
            _, obj = lib.loads(text)
            assert lib.oracle_verify(obj).ok is not faulty, (kind, faulty)


# --- BENCHMARK.json


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_what_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert len(bench["workloads"]) >= 2
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER
    )
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
