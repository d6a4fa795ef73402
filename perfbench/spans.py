"""In-memory span tracer wrapped around the layers of ``ambicalc``.

``Tracer.install`` wraps the public functions of each layer module (plus the
few methods and private helpers the per-layer metrics need) and rebinds every
name in every loaded ``ambicalc`` module that refers to one of them, so calls
between modules are traced too.  Each call records one span: name, start,
end and the span that was open when it began.  Spans are kept in flat arrays
and written out at the end; self time is computed from them afterwards.

The tracer keeps one span stack, so it traces a single thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "documents",
    "sweeps",
    "interval",
    "ambiguity",
    "incidence",
    "numeric",
    "oracle",
    "harness",
    "cli",
    "frames",
)

# Methods and private helpers that per-layer metrics are defined on, in
# addition to every public function of the layer.
EXTRA = {
    "interval": ("SetValuedMap.__post_init__",),
    "numeric": ("ProbabilityAssignment.of", "BeliefReport.__post_init__"),
    "frames": ("_Universe.format_subset",),
    "harness": ("_standard_trial", "_probability_for", "_drop_situation", "_drop_atom"),
}

# A check_* span directly under one of these re-verifies what the
# constructor already guarantees.
CONSTRUCTORS = frozenset(
    {
        "ambiguity.ambiguity_from_interval",
        "incidence.select_incidence",
        "incidence.incidence_from_pointmap",
        "incidence.compose_interval",
        "interval.structure_from_assignment",
        "numeric.structure_from_mass",
    }
)

SCANS = (
    "first_union_hom_violation",
    "first_inter_hom_violation",
    "first_inter_bound_violation",
    "first_union_bound_violation",
    "first_overlap_violation",
    "first_mixed_union_violation",
    "first_mixed_inter_violation",
    "first_compat_violation",
)

# metric -> spans whose summed duration it reports
INCLUSIVE = {
    "documents.loads_s": ("documents.loads",),
    "documents.dumps_s": ("documents.dumps",),
    "sweeps.pair_list_s": ("sweeps.pair_samples",),
    "sweeps.scan_s": tuple(f"sweeps.{name}" for name in SCANS),
    "interval.lower_table_s": ("interval.lower_table_from_cells",),
    "interval.extract_s": ("interval.extract_assignment",),
    "interval.check_upper_s": ("interval.check_upper_axioms",),
    "interval.check_lower_s": ("interval.check_lower_axioms",),
    "interval.check_duality_s": ("interval.check_duality",),
    "interval.check_assignment_s": ("interval.check_assignment",),
    "interval.table_validate_s": ("interval.SetValuedMap.__post_init__",),
    "ambiguity.check_s": ("ambiguity.check_ambiguity_axioms",),
    "incidence.select_s": ("incidence.select_incidence",),
    "incidence.check_incidence_s": ("incidence.check_incidence_axioms",),
    "incidence.compatibility_s": ("incidence.check_compatibility",),
    "incidence.compose_s": ("incidence.compose_interval",),
    "numeric.prob_of_s": ("numeric.ProbabilityAssignment.of",),
    "numeric.belief_report_validate_s": ("numeric.BeliefReport.__post_init__",),
    "numeric.belief_identity_s": ("numeric.check_belief_identity",),
    "numeric.fishburn_s": ("numeric.fishburn_report",),
    "numeric.structure_from_mass_s": ("numeric.structure_from_mass",),
    "harness.gen_s": (
        "harness.gen_assignment",
        "harness.gen_pointmap",
        "harness.gen_probability",
        "harness._probability_for",
    ),
}

# metric -> spans whose summed self time it reports
SELF = {
    "interval.overlap_check_s": ("interval.structure_from_assignment",),
    "harness.trial_self_s": ("harness._standard_trial",),
}

# metric -> spans whose number it reports
CALLS = {
    "interval.tables_built": ("interval.SetValuedMap.__post_init__",),
    "numeric.prob_of_calls": ("numeric.ProbabilityAssignment.of",),
    "frames.format_subset_calls": ("frames._Universe.format_subset",),
    "sweeps.scans": tuple(f"sweeps.{name}" for name in SCANS),
    "harness.shrink_steps": ("harness._drop_situation", "harness._drop_atom"),
}

# counters bumped by the observers below
OBSERVED = ("sweeps.pair_lists", "sweeps.pairs_built", "sweeps.pairs_scanned", "documents.bytes")

# (name, unit, better) of every per-layer metric, each given per item
# (a fuzz trial or a document).
PER_LAYER = (
    [(name, "s/item", "lower") for name in INCLUSIVE]
    + [(name, "s/item", "lower") for name in SELF]
    + [(name, "count/item", "lower") for name in CALLS]
    + [(name, "count/item", "lower") for name in OBSERVED]
    + [(f"{layer}.self_s", "s/item", "lower") for layer in LAYERS]
    + [
        ("oracle.share", "ratio", "lower"),
        ("numeric.share", "ratio", "lower"),
        ("recheck_s", "s/item", "lower"),
        ("recheck.share", "ratio", "lower"),
        ("trace.layer_share", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def pairs_scanned(size: int, pairs, hit) -> int:
    """Pairs a sweep visited, from its arguments and the pair it returned.

    Exhaustive sweeps walk A <= B in row order; sampled sweeps walk the list.
    ``first_overlap_violation`` walks differently: see ``overlap_pairs_scanned``.
    """
    if pairs is not None:
        return len(pairs) if hit is None else pairs.index(hit) + 1
    if hit is None:
        return size * (size + 1) // 2
    a, b = hit
    return a * size - a * (a - 1) // 2 + (b - a + 1)


def _observe_pair_list(counts, args, result):
    if result is not None:
        counts["sweeps.pair_lists"] += 1
        counts["sweeps.pairs_built"] += len(result)


def overlap_pairs_scanned(t, size: int, pairs, hit) -> int:
    """Pairs ``first_overlap_violation`` visited.

    Its exhaustive walk takes A < B and skips every row whose image is empty;
    a sampled sweep walks the list.
    """
    if pairs is not None:
        return pairs_scanned(size, pairs, hit)
    rows = size if hit is None else hit[0]
    visited = sum(size - a - 1 for a in range(rows) if t[a])
    return visited if hit is None else visited + hit[1] - hit[0]


def _observe_scan(counts, args, result):
    counts["sweeps.pairs_scanned"] += pairs_scanned(args[-2], args[-1], result)


def _observe_overlap_scan(counts, args, result):
    counts["sweeps.pairs_scanned"] += overlap_pairs_scanned(*args, result)


def _observe_loads(counts, args, result):
    counts["documents.bytes"] += len(args[0].encode("utf-8"))


def _observe_dumps(counts, args, result):
    counts["documents.bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "sweeps.pair_samples": _observe_pair_list,
    "documents.loads": _observe_loads,
    "documents.dumps": _observe_dumps,
    **{f"sweeps.{name}": _observe_scan for name in SCANS},
    "sweeps.first_overlap_violation": _observe_overlap_scan,
}


class Tracer:
    """Records nested spans in flat arrays; one span stack, one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording one span called ``name`` per call."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, counts = self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self, package: str = "ambicalc"):
        """Wrap every layer of ``package``; ``uninstall`` puts the originals back."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrapped[value] = self.wrap(value, name, OBSERVERS.get(name))
            for dotted in EXTRA.get(layer, ()):
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                value = vars(owner)[attr]
                name = f"{layer}.{dotted}"
                traced = self.wrap(value, name, OBSERVERS.get(name))
                if owner_name:
                    self._patch(owner, attr, traced)
                else:
                    wrapped[value] = traced
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write the names, counters and span arrays to ``path``."""
        header = {
            "names": self.names,
            "counts": dict(self.counts),
            "arrays": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "spans": len(self),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path) -> Tracer:
    """Read back a file written by ``Tracer.save``."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for field, _ in header["arrays"]:
            getattr(tracer, field).fromfile(fh, header["spans"])
    for name in header["names"]:
        tracer._id(name)
    tracer.counts.update(header["counts"])
    return tracer


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Overlapping children are merged first, and a child running past its
    parent is clipped to the parent's interval.
    """
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, -math.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach.get(p, -math.inf):
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, summed duration and summed self time; plus the
    root total and the time of constructor re-checks."""
    names = tracer.names
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    calls = [0] * len(names)
    total = [0.0] * len(names)
    own = [0.0] * len(names)
    root = 0.0
    recheck = 0.0
    name_id, parent, start, end = tracer.name_id, tracer.parent, tracer.start, tracer.end
    for i in range(len(start)):
        nid = name_id[i]
        dur = end[i] - start[i]
        calls[nid] += 1
        total[nid] += dur
        own[nid] += selfs[i]
        p = parent[i]
        if p < 0:
            root += dur
        elif names[nid].split(".", 1)[1].startswith("check_") and names[name_id[p]] in CONSTRUCTORS:
            recheck += dur
    by_name = {
        name: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
        for k, name in enumerate(names)
    }
    return {"by_name": by_name, "root_s": root, "recheck_s": recheck}


def layer_metrics(tracer: Tracer, items: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric, per item, from a finished trace."""
    agg = aggregate(tracer)
    by_name = agg["by_name"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def field(names, key):
        return sum(by_name.get(name, zero)[key] for name in names)

    out: dict[str, float] = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = field(names, "total_s") / items
    for metric, names in SELF.items():
        out[metric] = field(names, "self_s") / items
    for metric, names in CALLS.items():
        out[metric] = field(names, "calls") / items
    for metric in OBSERVED:
        out[metric] = tracer.counts.get(metric, 0) / items
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in by_name.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / items
    root = agg["root_s"] or math.inf
    out["oracle.share"] = layer_self["oracle"] / root
    out["numeric.share"] = layer_self["numeric"] / root
    out["recheck_s"] = agg["recheck_s"] / items
    out["recheck.share"] = agg["recheck_s"] / root
    out["trace.layer_share"] = 1 - layer_self["cli"] / root
    out["trace.overhead"] = overhead
    return out
