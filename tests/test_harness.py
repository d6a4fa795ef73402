import concurrent.futures
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ambicalc import (
    Frame,
    GenConfig,
    IntervalStructure,
    SetValuedMap,
    SituationSpace,
    fuzz,
    gen_assignment,
    gen_pointmap,
    gen_probability,
    universes_for,
)
from ambicalc import harness
from ambicalc.cli import run_command
from ambicalc.errors import AmbicalcError, UsageError, ValidationError
from ambicalc.harness import (
    SEEDED_SELECTORS,
    _drop_atom,
    _drop_situation,
    _shrink_map,
    _trial_config,
    worker_count,
)
from ambicalc.incidence import Selector
from ambicalc.interval import axiom_report, check_assignment
from ambicalc.reports import AxiomReport, Verdict, Witness
from ambicalc.sweeps import derive_seed

# SHA-256 of the fuzz output of each configuration, recorded before the
# per-trial work was deduplicated: a change to any report's bytes shows here.
# "--seed 7 --trials 150" was recorded with the then optional zero weights,
# which every trial now draws.
SESSION_DIGEST = "fe465d16d4ca6116e6470a71051a664ccb6ef35cd72f03976c71b1f2d779fc1e"
GOLDEN_DIGESTS = {
    "--seed 42 --trials 100 --fault-injection":
        "544459310594172b59fb819696a0ea9b36fb8ffcf0c64255c167cd9ce8dcb3a9",
    "--seed 7 --trials 150":
        "dd71374e25a0590131b25413ebc3f470ed0ff6c69590ecaa1a4e0ad50fc485cd",
    "--seed 7 --trials 50 --atoms 6 --situations 20":
        "0cef8e6cd3783fa49c5cfd869f55d9b56146a5f3f04ac71d6f044449218e33db",
    "--seed 7 --trials 100 --format json":
        "5ae6b313ede3c5e1ae4443bb2a952c4ecc51a6e8028596d3a300705f2443d49e",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_session_report_bytes(session_report):
    assert _digest(session_report.render()) == SESSION_DIGEST


@pytest.mark.parametrize("flags", sorted(GOLDEN_DIGESTS))
def test_fuzz_output_bytes(flags):
    code, text = run_command(["fuzz", *flags.split()])
    assert code == 0
    assert _digest(text) == GOLDEN_DIGESTS[flags]


def test_genconfig_validation():
    GenConfig(m=1, n=1)
    for kwargs in (
        {"m": 0, "n": 1},
        {"m": 17, "n": 1},
        {"m": 1, "n": 0},
        {"m": 1, "n": 65},
        {"m": 1, "n": 1, "trials": 0},
    ):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


def test_gen_assignment_deterministic_and_valid():
    cfg = GenConfig(m=3, n=6, seed=11)
    a = gen_assignment(cfg)
    b = gen_assignment(cfg)
    assert a == b
    assert a != gen_assignment(GenConfig(m=3, n=6, seed=12))
    for seed in range(40):
        j = gen_assignment(GenConfig(m=4, n=8, seed=seed))
        assert check_assignment(j.map).ok


def test_gen_pointmap_and_probability():
    cfg = GenConfig(m=3, n=5, seed=2)
    g = gen_pointmap(cfg)
    assert g == gen_pointmap(cfg)
    assert all(0 <= t < 3 for t in g.targets)
    p = gen_probability(cfg)
    assert p == gen_probability(cfg)
    assert sum(p.weights) == 1
    assert all(w > 0 for w in p.weights)


def test_a_fuzz_trial_probability_can_carry_a_zero_weight(monkeypatch):
    drawn = []
    original = harness._probability_for

    def spy(*args):
        drawn.append(original(*args))
        return drawn[-1]

    monkeypatch.setattr(harness, "_probability_for", spy)
    monkeypatch.delenv("AMBIG_THREADS", raising=False)
    assert fuzz(GenConfig(m=2, n=64, seed=0, trials=30)).ok
    assert len(drawn) == 30
    assert all(sum(p.weights) == 1 for p in drawn)
    assert any(w == 0 for p in drawn for w in p.weights)


def test_universes_for():
    frame, space = universes_for(GenConfig(m=2, n=3))
    assert frame.atoms == ("x1", "x2")
    assert space.names == ("w1", "w2", "w3")


def test_fuzz_standard_clean():
    rep = fuzz(GenConfig(m=4, n=6, seed=5, trials=40))
    assert rep.ok
    assert rep.mode == "standard"
    for stat in rep.stats:
        assert (stat.passes, stat.fails) == (40, 0)
    assert [s.name for s in rep.stats] == [
        "assignment-roundtrip",
        "ambiguity-axioms",
        "incidence-selection",
        "decompose-compose",
        "belief-bridge",
        "alpha-axioms",
        "oracle-agreement",
    ]


def test_fuzz_deterministic_rerun():
    cfg = GenConfig(m=5, n=10, seed=42, trials=30)
    assert fuzz(cfg).render() == fuzz(cfg).render()


def test_fuzz_thread_count_is_invisible(monkeypatch):
    cfg = GenConfig(m=4, n=8, seed=13, trials=24)
    base = fuzz(cfg).render()
    monkeypatch.setenv("AMBIG_THREADS", "4")
    assert fuzz(cfg).render() == base
    monkeypatch.setenv("AMBIG_THREADS", "2")
    assert fuzz(cfg).render() == base


@pytest.mark.parametrize("value", ["abc", "-3", "0", "1.5", " "])
def test_bad_worker_count_is_a_usage_error(monkeypatch, value):
    monkeypatch.setenv("AMBIG_THREADS", value)
    with pytest.raises(UsageError, match="AMBIG_THREADS"):
        worker_count(10)
    code, text = run_command(["fuzz", "--trials", "3"])
    assert code == 2
    assert text.startswith("error: AMBIG_THREADS must be")


def test_worker_count_is_capped(monkeypatch):
    cpus = os.cpu_count() or 1
    monkeypatch.delenv("AMBIG_THREADS", raising=False)
    assert worker_count(1000) == 1
    monkeypatch.setenv("AMBIG_THREADS", "")
    assert worker_count(1000) == 1
    monkeypatch.setenv("AMBIG_THREADS", str(10**9))
    assert worker_count(1000) == min(cpus, 1000)
    assert worker_count(1) == 1
    monkeypatch.setenv("AMBIG_THREADS", "2")
    assert worker_count(1) == 1
    assert worker_count(1000) == min(2, cpus)


def test_serial_fuzz_starts_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the serial path started a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = GenConfig(m=3, n=4, seed=2, trials=5)
    monkeypatch.delenv("AMBIG_THREADS", raising=False)
    assert fuzz(cfg).ok
    monkeypatch.setenv("AMBIG_THREADS", "1")
    assert fuzz(cfg).ok


def _count_calls(monkeypatch, names) -> dict:
    """Wrap each ``layer.function`` in ``names`` in a call counter, patched
    into every ``ambicalc`` module that looks the function up by name."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for key, mod in sys.modules.items() if key.startswith("ambicalc")]
    for name in names:
        layer, attr = name.split(".")
        original = getattr(sys.modules[f"ambicalc.{layer}"], attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return counts


def _new_seeded_picks(cfg: GenConfig) -> int:
    """Seeded selections of a fuzz run that pick, on the focal elements of
    their trial's assignment, differently from the min-index selection and
    from every seeded one before them in the trial.  Equal picks give equal
    incidence tables, and different picks different ones."""
    new = 0
    for trial in range(cfg.trials):
        cells = gen_assignment(_trial_config(cfg, trial)).map.table
        focal = [mask for mask, cell in enumerate(cells) if cell]
        seen = {tuple(Selector.min_index().choose(mask) for mask in focal)}
        for k in range(SEEDED_SELECTORS):
            sel = Selector.seeded(derive_seed("selector-seed", cfg.seed, trial, k))
            picks = tuple(sel.choose(mask) for mask in focal)
            new += picks not in seen
            seen.add(picks)
    return new


def test_each_fact_is_computed_once_per_trial(monkeypatch):
    cfg = GenConfig(m=5, n=10, seed=4, trials=40)
    new = _new_seeded_picks(cfg)
    # the run has repeated tables to skip and new ones to check
    assert 0 < new < cfg.trials * SEEDED_SELECTORS
    counts = _count_calls(
        monkeypatch,
        [
            "interval.extract_assignment",
            "incidence.check_incidence_axioms",
            "ambiguity.check_ambiguity_axioms",
            "interval.make_interval_structure",
            "interval.check_assignment",
        ],
    )
    monkeypatch.delenv("AMBIG_THREADS", raising=False)
    assert fuzz(cfg).ok
    assert counts == {
        # the harness's own round trip; later stages reuse the carried one
        "interval.extract_assignment": cfg.trials,
        # the harness checks each distinct incidence table of a trial once:
        # the min-index one, and each seeded one not seen before in the trial
        "incidence.check_incidence_axioms": cfg.trials + new,
        # the harness's check, and compose_interval's input guard
        "ambiguity.check_ambiguity_axioms": 2 * cfg.trials,
        "interval.make_interval_structure": 0,
        # the harness's check, and structure_from_assignment's input guard;
        # structure_from_mass builds its singleton cells without the guard
        "interval.check_assignment": 2 * cfg.trials,
    }


def test_structure_carries_its_assignment(fix1):
    assert fix1["s"].assignment is fix1["j"]
    loaded = IntervalStructure(fix1["s"].lower, fix1["s"].upper)
    assert loaded == fix1["s"]
    assert loaded.assignment == fix1["j"]


def test_fault_injection_always_detected():
    rep = fuzz(GenConfig(m=4, n=6, seed=21, trials=60, fault_injection=True))
    assert rep.mode == "fault-injection"
    assert rep.ok
    assert rep.stat("fault-detected").passes == 60
    assert rep.stat("oracle-agreement").passes == 60


def test_fuzz_report_json_shape():
    rep = fuzz(GenConfig(m=3, n=4, seed=1, trials=5))
    obj = rep.to_json_obj()
    assert obj["trials"] == 5
    assert set(obj["properties"]) == {s.name for s in rep.stats}
    assert obj["failures"] == []


def test_drop_situation_reindexes():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    m = SetValuedMap(fr, sp, (0, 0b001, 0b010, 0b100))
    out = _drop_situation(m, 1)
    assert out.space.names == ("w1", "w3")
    assert out.table == (0, 0b01, 0, 0b10)


def test_drop_atom_merges_into_neighbor():
    fr = Frame(("x", "y"))
    sp = SituationSpace(("w1", "w2", "w3"))
    m = SetValuedMap(fr, sp, (0, 0b001, 0b010, 0b100))
    merged = _drop_atom(m, 1)
    assert merged.frame.atoms == ("x",)
    assert merged.table == (0, 0b111)
    assert check_assignment(merged).ok


def test_shrink_finds_small_witness():
    fr = Frame(("x", "y", "z"))
    sp = SituationSpace(("w1", "w2", "w3", "w4"))
    # situation w2 sits in two cells; everything else is noise
    m = SetValuedMap(fr, sp, (0, 0b0011, 0b0110, 0, 0b1000, 0, 0, 0b0100))
    assert not check_assignment(m).ok

    def still_fails(cand):
        return not check_assignment(cand).ok

    small = _shrink_map(m, still_fails)
    assert small.space.n < sp.n or small.frame.m < fr.m
    assert still_fails(small)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU caps the fuzz at one worker")
def test_unguarded_script_with_workers_gets_an_error_naming_the_guard(tmp_path):
    """Each spawned worker re-runs the script, whose fuzz call then fails to
    start workers of its own, so the pool breaks after at most two starts."""
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from ambicalc.harness import GenConfig, fuzz\n"
        "fuzz(GenConfig(m=2, n=2, trials=2))\n",
        encoding="utf-8",
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "AMBIG_THREADS": "2", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 1
    # the workers' own tracebacks share stderr and may come after this line
    prefix = "ambicalc.errors.AmbicalcError: a fuzz worker process died"
    error = next(line for line in done.stderr.splitlines() if line.startswith(prefix))
    assert 'if __name__ == "__main__":' in error
    assert "BrokenProcessPool:" not in done.stderr


_HEAD = """fuzz report
seed: 5
trials: 4
max-atoms: 3
max-situations: 4
"""
_SHRUNK_N3 = (
    '{"kind":"assignment","atoms":["x1"],"situations":["w1","w2","w3"],'
    '"body":{"x1":["w1","w2","w3"]}}'
)
FAILING_REPORTS = {
    "ambiguity-check": (_HEAD + f"""mode: standard
seeded-selectors: 5
properties:
  assignment-roundtrip: pass=4 fail=0
  ambiguity-axioms: pass=2 fail=2
  incidence-selection: pass=4 fail=0
  decompose-compose: pass=4 fail=0
  belief-bridge: pass=4 fail=0
  alpha-axioms: pass=4 fail=0
  oracle-agreement: pass=2 fail=2
failures:
  trial=0 seed=6059091996828100695
    failed: ambiguity-axioms,oracle-agreement
    shrunk: {_SHRUNK_N3}
  trial=3 seed=15036047841275459636
    failed: ambiguity-axioms,oracle-agreement
    shrunk: {_SHRUNK_N3}""",
        "e30b82b096963a46bbaad61044d6c37839291cb4a0c5d0e7529047ddc026258f"),
    "raising-stage": (_HEAD + f"""mode: standard
seeded-selectors: 5
properties:
  assignment-roundtrip: pass=4 fail=0
  ambiguity-axioms: pass=4 fail=0
  incidence-selection: pass=4 fail=0
  decompose-compose: pass=4 fail=0
  belief-bridge: pass=2 fail=2
  alpha-axioms: pass=2 fail=2
  oracle-agreement: pass=2 fail=2
failures:
  trial=0 seed=6059091996828100695
    failed: belief-bridge,alpha-axioms,oracle-agreement
    note: ValidationError: injected
    shrunk: {_SHRUNK_N3}
  trial=3 seed=15036047841275459636
    failed: belief-bridge,alpha-axioms,oracle-agreement
    note: ValidationError: injected
    shrunk: {_SHRUNK_N3}""",
        "dc30409d5c3c7e9db4c045513c7abb2af1badddca38a41ce8221d07973bc26e2"),
    "blind-checkers": (_HEAD + """mode: fault-injection
seeded-selectors: 5
properties:
  fault-detected: pass=0 fail=4
  oracle-agreement: pass=0 fail=4
failures:
  trial=0 seed=6059091996828100695
    failed: fault-detected,oracle-agreement
    shrunk: {"kind":"assignment","atoms":["x1"],"situations":["w1"],"body":{"x1":["w1"]}}
  trial=1 seed=289072581468725476
    failed: fault-detected,oracle-agreement
    shrunk: {"kind":"interval","atoms":["x1","x2","x3"],"situations":["w1"],"body":{"lower":{"x1,x2,x3":["w1"]},"upper":{"x1":["w1"],"x1,x2":["w1"],"x3":["w1"],"x1,x3":["w1"],"x2,x3":["w1"],"x1,x2,x3":["w1"]}}}
  trial=2 seed=8166484112599602399
    failed: fault-detected,oracle-agreement
    shrunk: {"kind":"assignment","atoms":["x1"],"situations":["w1"],"body":{}}
  trial=3 seed=15036047841275459636
    failed: fault-detected,oracle-agreement
    shrunk: {"kind":"interval","atoms":["x1","x2"],"situations":["w1","w2","w3"],"body":{"lower":{"x1":["w2"],"x2":["w1","w3"],"x1,x2":["w1","w2","w3"]},"upper":{"x1":["w2"],"x2":["w1","w3"],"x1,x2":["w1","w3"]}}}""",
        "5a53a009940ebba1f865594b4ae1e235df83c55f165535f2e10f8ed6f30e4bf5"),
}


def _break_the_harness(monkeypatch, how: str) -> list[str]:
    """Patch one checker or stage of the harness, in this process, so that
    some trials fail; return the fuzz flags for the matching mode."""
    monkeypatch.delenv("AMBIG_THREADS", raising=False)
    if how == "ambiguity-check":
        # a false a1 alarm on every ambiguity map of 3 or more situations,
        # so the shrink stops at 3 situations and 1 atom
        original = harness.check_ambiguity_axioms

        def alarm(m):
            if m.space.n >= 3:
                return axiom_report(("a1", Witness(detail="injected")))
            return original(m)

        monkeypatch.setattr(harness, "check_ambiguity_axioms", alarm)
        return []
    if how == "raising-stage":
        original_belief = harness.belief_from_structure

        def belief(s, p):
            if s.space.n >= 3:
                raise ValidationError("injected")
            return original_belief(s, p)

        monkeypatch.setattr(harness, "belief_from_structure", belief)
        return []
    # checkers that pass everything miss every injected fault: the flipped
    # assignments shrink, the flipped structures are reported as they are
    def blind(check):
        def passes(*args):
            report = check(*args)
            return AxiomReport(tuple(Verdict(v.axiom, True, None) for v in report.verdicts))

        return passes

    monkeypatch.setattr(harness, "check_assignment", blind(harness.check_assignment))
    monkeypatch.setattr(harness, "check_structure", blind(harness.check_structure))
    return ["--fault-injection"]


@pytest.mark.parametrize("how", sorted(FAILING_REPORTS))
def test_failing_trials_are_reported_and_shrunk(monkeypatch, how):
    flags = _break_the_harness(monkeypatch, how)
    argv = ["fuzz", "--trials", "4", "--atoms", "3", "--situations", "4", "--seed", "5", *flags]
    text, json_digest = FAILING_REPORTS[how]
    assert run_command(argv) == (1, text)
    code, json_text = run_command([*argv, "--format", "json"])
    assert code == 1
    assert _digest(json_text) == json_digest


def test_stat_names_a_property_the_report_lacks():
    report = fuzz(GenConfig(m=2, n=2, seed=1, trials=2))
    assert report.stat("oracle-agreement").passes == 2
    with pytest.raises(KeyError):
        report.stat("fault-detected")


def test_a_broken_pool_names_the_guard_a_script_needs(monkeypatch):
    """A pool whose map fails as a dead worker makes it fail; no process starts."""
    from concurrent.futures.process import BrokenProcessPool

    class DeadPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, *args, **kwargs):
            raise BrokenProcessPool("a worker died")

    monkeypatch.setenv("AMBIG_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DeadPool)
    with pytest.raises(AmbicalcError) as info:
        fuzz(GenConfig(m=2, n=2, trials=2))
    assert str(info.value) == (
        "a fuzz worker process died (2 workers); spawned workers re-import the calling"
        " script, so a script that runs fuzz with several workers must keep that call"
        ' under if __name__ == "__main__":'
    )
