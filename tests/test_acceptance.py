"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

The shared fuzz run (the `session_report` fixture in conftest.py) uses seed
42, 1000 trials, frames up to 5 atoms, and spaces up to 10 situations; every
per-trial property is exhaustive at these sizes and all numeric checks are
exact rational arithmetic, so there are no tolerances anywhere.
"""

import os
from fractions import Fraction

import pytest

from ambicalc import (
    Frame,
    GenConfig,
    IncompatiblePair,
    ProbabilityAssignment,
    Selector,
    SituationSpace,
    belief_from_structure,
    check_belief_identity,
    check_compatibility,
    check_incidence_axioms,
    check_sandwich,
    compose_interval,
    decompose_interval,
    fishburn_report,
    fuzz,
    mass_from_structure,
    select_incidence,
    structure_from_mass,
)
from ambicalc.cli import run_command

from test_incidence import all_explicit_selectors

@pytest.fixture
def announce(capsys):
    def _announce(name: str, ok: bool):
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, name

    return _announce


def _clean(report, prop: str) -> bool:
    stat = report.stat(prop)
    return stat.passes == report.trials and stat.fails == 0 and not report.failures


def test_criterion_1_assignment_roundtrip(session_report, announce):
    announce(
        "assignment roundtrip and structure axioms, 1000 seeded trials",
        _clean(session_report, "assignment-roundtrip"),
    )


def test_criterion_2_ambiguity_axioms(session_report, announce):
    announce(
        "gap ambiguity axioms, 1000 seeded trials",
        _clean(session_report, "ambiguity-axioms"),
    )


def test_criterion_3_incidence_selection(session_report, fix1, fix3, announce):
    ok = _clean(session_report, "incidence-selection")
    for fx in (fix1, fix3):
        for sel in all_explicit_selectors(fx["j"]):
            inc = select_incidence(fx["j"], sel)
            ok = ok and check_incidence_axioms(inc.map).ok and check_sandwich(fx["s"], inc).ok
    announce("incidence selection: seeded plus every explicit selector", ok)


def test_criterion_4_decompose_compose(session_report, fix1, fix2, announce):
    ok = _clean(session_report, "decompose-compose")
    inc, amb = decompose_interval(fix1["s"])
    s = compose_interval(inc, amb)
    omega = s.space.full
    for a in range(4):
        ok = ok and s.upper.table[a] == (inc.map.table[a] | amb.map.table[a])
        ok = ok and s.lower.table[a] == (inc.map.table[a] & (omega ^ amb.map.table[a]))
    compat = check_compatibility(fix2["inc"], fix2["amb"]).find("compatibility")
    ok = ok and not compat.ok and compat.witness.key() == (1, 2, None)
    try:
        compose_interval(fix2["inc"], fix2["amb"])
        ok = False
    except IncompatiblePair as exc:
        ok = ok and str(exc) == "compatibility fails at A={x}, B={y}"
    announce("decompose/compose identities and incompatible-pair witness", ok)


def test_criterion_5_belief_bridge(session_report, announce):
    announce(
        "exact belief bridge and canonical-model roundtrip, 1000 seeded trials",
        _clean(session_report, "belief-bridge"),
    )


def test_criterion_6_fishburn(session_report, fix1, announce):
    ok = _clean(session_report, "alpha-axioms")
    rep = belief_from_structure(fix1["s"], fix1["p"])
    ok = ok and fishburn_report(rep).ok
    third = Fraction(1, 3)
    ok = ok and rep.bel[1] == third and rep.pl[1] == Fraction(2, 3)
    ok = ok and rep.alpha[1] == third and rep.alpha[2] == third
    announce("Fishburn laws for alpha, with exact spot values", ok)


def test_criterion_7_oracle_agreement(session_report, announce):
    ok = _clean(session_report, "oracle-agreement")
    faults = fuzz(
        GenConfig(m=5, n=10, seed=42, trials=100, fault_injection=True, seeded_selectors=5)
    )
    ok = ok and _clean(faults, "fault-detected") and _clean(faults, "oracle-agreement")
    announce("oracle agreement, including 100 injected single-bit faults", ok)


def test_criterion_8_deterministic_cli(session_report, announce):
    argv = ["fuzz", "--seed", "42", "--trials", "1000"]
    first = run_command(argv)
    second = run_command(argv)
    before = os.environ.get("AMBIG_THREADS")
    os.environ["AMBIG_THREADS"] = "4"
    try:
        threaded = run_command(argv)
    finally:
        if before is None:
            os.environ.pop("AMBIG_THREADS", None)
        else:
            os.environ["AMBIG_THREADS"] = before
    ok = first == second == threaded
    ok = ok and first[0] == 0
    ok = ok and first[1] == session_report.render()
    announce("fuzz output byte-identical across reruns and thread counts", ok)
