"""Seeded generators, the end-to-end fuzz driver, and fault injection.

Every stream is derived from (master seed, role, trial index), so a report is
a pure function of its config: reruns and different worker counts produce the
same bytes.  The driver runs the whole pipeline per trial — assignment,
structure, gap, selected incidences, decompose/compose, the probability
bridge — and cross-checks each stage against the naive oracle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from functools import partial
from math import comb, exp, isfinite

from .ambiguity import ambiguity_from_interval, check_ambiguity_axioms
from .documents import dumps
from .errors import AmbicalcError, UsageError
from .frames import Frame, SituationSpace
from .incidence import PointMap, Selector, check_incidence_axioms, check_sandwich
from .incidence import compose_interval, decompose_interval, select_incidence
from .interval import (
    BasicAssignment,
    IntervalStructure,
    SetValuedMap,
    check_assignment,
    check_structure,
    extract_assignment,
    structure_from_assignment,
)
from .numeric import (
    ProbabilityAssignment,
    belief_from_structure,
    check_belief_identity,
    fishburn_report,
    mass_from_structure,
    structure_from_mass,
)
from .oracle import (
    oracle_ambiguity_table,
    oracle_extract_table,
    oracle_lower_table,
    oracle_upper_table,
    oracle_verify,
)
from .sweeps import derive_seed

STANDARD_PROPERTIES = (
    "assignment-roundtrip",
    "ambiguity-axioms",
    "incidence-selection",
    "decompose-compose",
    "belief-bridge",
    "alpha-axioms",
    "oracle-agreement",
)
FAULT_PROPERTIES = ("fault-detected", "oracle-agreement")

_SHRINK_BUDGET = 300


@dataclass(frozen=True)
class GenConfig:
    """Sizes and switches for the generators and the fuzz driver.

    ``m``/``n`` are exact sizes for the generators; the fuzz driver treats
    them as upper bounds and draws per-trial sizes from its own stream.
    """

    m: int
    n: int
    seed: int = 0
    trials: int = 1
    focal_bias: float | None = None
    zero_weights: bool = False
    fault_injection: bool = False
    seeded_selectors: int = 5

    def __post_init__(self):
        if not 1 <= self.m <= Frame.MAX_ATOMS:
            raise ValueError(f"atom count must be in 1..{Frame.MAX_ATOMS}")
        if not 1 <= self.n <= SituationSpace.MAX_SITUATIONS:
            raise ValueError(f"situation count must be in 1..{SituationSpace.MAX_SITUATIONS}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seeded_selectors < 0:
            raise ValueError("seeded selector count cannot be negative")
        if self.focal_bias is not None:
            try:
                total = sum(_size_weights(self.m, self.focal_bias))
            except OverflowError:
                total = float("inf")
            # fuzz trials draw m' <= m, whose weights are no larger and keep
            # the k = 1 term, so a bias usable at m is usable at every m'
            if not (isfinite(total) and total > 0):
                raise ValueError(
                    f"focal bias {self.focal_bias!r} gives no finite positive"
                    f" size weights at {self.m} atoms"
                )


def universes_for(cfg: GenConfig) -> tuple[Frame, SituationSpace]:
    frame = Frame(tuple(f"x{k + 1}" for k in range(cfg.m)))
    space = SituationSpace(tuple(f"w{k + 1}" for k in range(cfg.n)))
    return frame, space


def _size_weights(m: int, bias: float) -> list[float]:
    """Weights of focal sizes 1..m: comb(m, k) * exp(bias * k); a positive
    bias favors big focal elements."""
    return [comb(m, k) * exp(bias * k) for k in range(1, m + 1)]


def _draw_focal(rng: random.Random, m: int, bias: float | None) -> int:
    if bias is None:
        return rng.randrange(1, 1 << m)
    k = rng.choices(range(1, m + 1), weights=_size_weights(m, bias))[0]
    mask = 0
    for idx in rng.sample(range(m), k):
        mask |= 1 << idx
    return mask


def gen_assignment(cfg: GenConfig) -> BasicAssignment:
    """Drop each situation into the cell of a random nonempty subset."""
    frame, space = universes_for(cfg)
    rng = random.Random(derive_seed("assignment", cfg.seed))
    cells = [0] * (1 << cfg.m)
    for w in range(cfg.n):
        cells[_draw_focal(rng, cfg.m, cfg.focal_bias)] |= 1 << w
    return BasicAssignment(SetValuedMap(frame, space, tuple(cells)))


def gen_pointmap(cfg: GenConfig) -> PointMap:
    rng = random.Random(derive_seed("pointmap", cfg.seed))
    return PointMap(tuple(rng.randrange(cfg.m) for _ in range(cfg.n)))


def _probability_for(space: SituationSpace, seed: int, zero_weights: bool) -> ProbabilityAssignment:
    rng = random.Random(derive_seed("probability", seed))
    lo = 0 if zero_weights else 1
    while True:
        weights = [rng.randint(lo, 1000) for _ in range(space.n)]
        if sum(weights) > 0:
            break
    return ProbabilityAssignment.from_integers(space, weights)


def gen_probability(cfg: GenConfig) -> ProbabilityAssignment:
    """Integer weights in [1, 1000] normalized exactly; the zero-inclusive
    mode also draws zeros but never an all-zero vector."""
    _, space = universes_for(cfg)
    return _probability_for(space, cfg.seed, cfg.zero_weights)


@dataclass(frozen=True)
class PropertyStat:
    name: str
    passes: int
    fails: int


@dataclass(frozen=True)
class FailureCase:
    trial: int
    seed: int
    failed: tuple[str, ...]
    note: str
    document: str


@dataclass(frozen=True)
class FuzzReport:
    seed: int
    trials: int
    max_atoms: int
    max_situations: int
    mode: str
    seeded_selectors: int
    stats: tuple[PropertyStat, ...]
    failures: tuple[FailureCase, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def stat(self, name: str) -> PropertyStat:
        for s in self.stats:
            if s.name == name:
                return s
        raise KeyError(name)

    def render(self) -> str:
        lines = [
            "fuzz report",
            f"seed: {self.seed}",
            f"trials: {self.trials}",
            f"max-atoms: {self.max_atoms}",
            f"max-situations: {self.max_situations}",
            f"mode: {self.mode}",
            f"seeded-selectors: {self.seeded_selectors}",
            "properties:",
        ]
        for s in self.stats:
            lines.append(f"  {s.name}: pass={s.passes} fail={s.fails}")
        if not self.failures:
            lines.append("failures: none")
        else:
            lines.append("failures:")
            for case in self.failures:
                lines.append(f"  trial={case.trial} seed={case.seed}")
                lines.append(f"    failed: {','.join(case.failed)}")
                if case.note:
                    lines.append(f"    note: {case.note}")
                lines.append(f"    shrunk: {case.document}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "max_atoms": self.max_atoms,
            "max_situations": self.max_situations,
            "mode": self.mode,
            "seeded_selectors": self.seeded_selectors,
            "properties": {s.name: {"pass": s.passes, "fail": s.fails} for s in self.stats},
            "failures": [
                {
                    "trial": c.trial,
                    "seed": c.seed,
                    "failed": list(c.failed),
                    "note": c.note,
                    "shrunk": c.document,
                }
                for c in self.failures
            ],
        }


def _trial_config(cfg: GenConfig, trial: int) -> GenConfig:
    sizes = random.Random(derive_seed("sizes", cfg.seed, trial))
    return replace(
        cfg,
        m=1 + sizes.randrange(cfg.m),
        n=1 + sizes.randrange(cfg.n),
        seed=derive_seed("trial", cfg.seed, trial),
        trials=1,
    )


def _evaluate_standard(cfg: GenConfig, sub: GenConfig, trial: int, j: BasicAssignment):
    outcomes: dict[str, bool | None] = dict.fromkeys(STANDARD_PROPERTIES, None)
    note = ""
    try:
        rep_j = check_assignment(j.map)
        s = structure_from_assignment(j)
        rep_s = check_structure(s.lower, s.upper)
        back = extract_assignment(s)
        outcomes["assignment-roundtrip"] = rep_j.ok and rep_s.ok and back == j

        agree = rep_j.agreement_key() == oracle_verify(j).agreement_key()
        agree = agree and rep_s.agreement_key() == oracle_verify(s).agreement_key()
        agree = agree and oracle_lower_table(j) == s.lower.table
        agree = agree and oracle_upper_table(j) == s.upper.table
        agree = agree and oracle_extract_table(s) == back.map.table

        amb = ambiguity_from_interval(s)
        rep_a = check_ambiguity_axioms(amb.map)
        outcomes["ambiguity-axioms"] = rep_a.ok
        agree = agree and rep_a.agreement_key() == oracle_verify(amb).agreement_key()
        agree = agree and oracle_ambiguity_table(s) == amb.map.table

        inc_min, amb_min = decompose_interval(s, Selector.min_index())
        rep_i = check_incidence_axioms(inc_min.map)
        sandwich = check_sandwich(s, inc_min)
        selection_ok = rep_i.ok and sandwich.ok
        agree = agree and rep_i.agreement_key() == oracle_verify(inc_min).agreement_key()
        # the checks are pure functions of the tables: a repeated table is
        # built, but not checked again
        checked = {inc_min.map.table}
        for k in range(cfg.seeded_selectors):
            sel = Selector.seeded(derive_seed("selector-seed", cfg.seed, trial, k))
            inc_k = select_incidence(j, sel)
            if inc_k.map.table in checked:
                continue
            checked.add(inc_k.map.table)
            selection_ok = (
                selection_ok
                and check_incidence_axioms(inc_k.map).ok
                and check_sandwich(s, inc_k).ok
            )
        outcomes["incidence-selection"] = selection_ok

        composed = compose_interval(inc_min, amb_min)
        outcomes["decompose-compose"] = composed == s and amb_min == amb

        prob = _probability_for(j.space, sub.seed, sub.zero_weights)
        beliefs = belief_from_structure(s, prob)
        mass = mass_from_structure(s, prob)
        identity = check_belief_identity(beliefs, mass)
        _, prob2, _, s2 = structure_from_mass(mass)
        beliefs2 = belief_from_structure(s2, prob2)
        outcomes["belief-bridge"] = (
            identity.ok and beliefs2.bel == beliefs.bel and beliefs2.pl == beliefs.pl
        )
        outcomes["alpha-axioms"] = fishburn_report(beliefs).ok
        outcomes["oracle-agreement"] = agree
    except AmbicalcError as exc:
        note = f"{type(exc).__name__}: {exc}"
        for key, value in outcomes.items():
            if value is None:
                outcomes[key] = False
    return outcomes, note


def _flip_bit(m: SetValuedMap, rng: random.Random) -> SetValuedMap:
    cell = rng.randrange(len(m.table))
    bit = 1 << rng.randrange(m.space.n)
    table = list(m.table)
    table[cell] ^= bit
    return SetValuedMap(m.frame, m.space, tuple(table))


def _evaluate_fault(instance) -> tuple[dict, str]:
    outcomes = dict.fromkeys(FAULT_PROPERTIES, False)
    if isinstance(instance, BasicAssignment):
        main = check_assignment(instance.map)
    else:
        main = check_structure(instance.lower, instance.upper)
    outcomes["fault-detected"] = not main.ok
    outcomes["oracle-agreement"] = main.agreement_key() == oracle_verify(instance).agreement_key()
    return outcomes, ""


def _drop_situation(m: SetValuedMap, w: int) -> SetValuedMap:
    names = m.space.names[:w] + m.space.names[w + 1 :]
    keep = (1 << w) - 1
    table = tuple(((e >> (w + 1)) << w) | (e & keep) for e in m.table)
    return SetValuedMap(m.frame, SituationSpace(names), table)


def _drop_atom(m: SetValuedMap, t: int) -> SetValuedMap:
    """Merge atom ``t`` into a neighbor, so nonempty subsets stay nonempty."""
    frame = Frame(m.frame.atoms[:t] + m.frame.atoms[t + 1 :])
    absorb = t - 1 if t > 0 else 1
    table = [0] * (1 << frame.m)
    for a in range(len(m.table)):
        projected = 0
        for k in range(m.frame.m):
            if a >> k & 1:
                kept = absorb if k == t else k
                projected |= 1 << (kept if kept < t else kept - 1)
        table[projected] |= m.table[a]
    return SetValuedMap(frame, m.space, tuple(table))


def _shrink_map(m: SetValuedMap, still_fails) -> SetValuedMap:
    """Greedy minimization: drop situations before atoms, highest index first."""
    budget = _SHRINK_BUDGET
    current = m
    changed = True
    while changed and budget > 0:
        changed = False
        if current.space.n > 1:
            for w in reversed(range(current.space.n)):
                candidate = _drop_situation(current, w)
                budget -= 1
                if still_fails(candidate):
                    current = candidate
                    changed = True
                    break
                if budget <= 0:
                    break
        if changed or budget <= 0:
            continue
        if current.frame.m > 1:
            for t in reversed(range(current.frame.m)):
                candidate = _drop_atom(current, t)
                budget -= 1
                if still_fails(candidate):
                    current = candidate
                    changed = True
                    break
                if budget <= 0:
                    break
    return current


def _standard_trial(cfg: GenConfig, trial: int):
    sub = _trial_config(cfg, trial)
    j = gen_assignment(sub)
    outcomes, note = _evaluate_standard(cfg, sub, trial, j)
    failed = tuple(name for name in STANDARD_PROPERTIES if not outcomes[name])
    case = None
    if failed:

        def fails(candidate: SetValuedMap) -> bool:
            oc, _ = _evaluate_standard(cfg, sub, trial, BasicAssignment(candidate))
            return any(not v for v in oc.values())

        shrunk = BasicAssignment(_shrink_map(j.map, fails))
        case = FailureCase(trial, sub.seed, failed, note, dumps(shrunk, compact=True))
    return outcomes, case


def _fault_trial(cfg: GenConfig, trial: int):
    sub = _trial_config(cfg, trial)
    rng = random.Random(derive_seed("fault", cfg.seed, trial))
    j = gen_assignment(sub)
    if trial % 2 == 0:
        instance = BasicAssignment(_flip_bit(j.map, rng))
    else:
        s = structure_from_assignment(j)
        if rng.randrange(2):
            instance = IntervalStructure(_flip_bit(s.lower, rng), s.upper)
        else:
            instance = IntervalStructure(s.lower, _flip_bit(s.upper, rng))
    outcomes, note = _evaluate_fault(instance)
    failed = tuple(name for name in FAULT_PROPERTIES if not outcomes[name])
    case = None
    if failed:
        if isinstance(instance, BasicAssignment):

            def fails(candidate: SetValuedMap) -> bool:
                oc, _ = _evaluate_fault(BasicAssignment(candidate))
                return any(not v for v in oc.values())

            instance = BasicAssignment(_shrink_map(instance.map, fails))
        case = FailureCase(trial, sub.seed, failed, note, dumps(instance, compact=True))
    return outcomes, case


def worker_count(trials: int) -> int:
    """Worker processes for a fuzz run of ``trials`` trials.

    The AMBIG_THREADS environment variable asks for a number (1 when unset
    or empty); the count is capped at the CPU count and at ``trials``.  Any
    other value than a whole number of at least 1 is a ``UsageError``.
    """
    raw = os.environ.get("AMBIG_THREADS") or "1"
    try:
        asked = int(raw)
    except ValueError:
        asked = 0
    if asked < 1:
        raise UsageError(f"AMBIG_THREADS must be a whole number of at least 1, not {raw!r}")
    return min(asked, os.cpu_count() or 1, trials)


def fuzz(cfg: GenConfig) -> FuzzReport:
    """Run the pipeline for every trial and tally per-property verdicts.

    With one worker (see ``worker_count``) the trials run in this process;
    with more, in that many spawned processes, in chunks.  Results are merged
    in trial order, so the report does not depend on the worker count.
    """
    properties = FAULT_PROPERTIES if cfg.fault_injection else STANDARD_PROPERTIES
    runner = partial(_fault_trial if cfg.fault_injection else _standard_trial, cfg)
    workers = worker_count(cfg.trials)
    if workers == 1:
        results = [runner(t) for t in range(cfg.trials)]
    else:
        # imported here, so the serial path does not load the pool machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = -(-cfg.trials // (4 * workers))
        context = multiprocessing.get_context("spawn")
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = list(pool.map(runner, range(cfg.trials), chunksize=chunk))
        except BrokenProcessPool:
            raise AmbicalcError(
                f"a fuzz worker process died ({workers} workers); spawned workers "
                "re-import the calling script, so a script that runs fuzz with several "
                'workers must keep that call under if __name__ == "__main__":'
            ) from None
    counts = {name: [0, 0] for name in properties}
    failures = []
    for outcomes, case in results:
        for name in properties:
            counts[name][0 if outcomes[name] else 1] += 1
        if case is not None:
            failures.append(case)
    stats = tuple(PropertyStat(name, counts[name][0], counts[name][1]) for name in properties)
    return FuzzReport(
        seed=cfg.seed,
        trials=cfg.trials,
        max_atoms=cfg.m,
        max_situations=cfg.n,
        mode="fault-injection" if cfg.fault_injection else "standard",
        seeded_selectors=cfg.seeded_selectors,
        stats=stats,
        failures=tuple(failures),
    )
