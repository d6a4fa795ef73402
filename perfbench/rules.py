"""Summary statistics and the comparison rule the benchmark applies.

Everything here is a pure function of lists of numbers, so the tests can
check it on synthetic runs.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(med)


def tail(samples: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value, sample count).  The value is the nearest-rank
    percentile.  Percentiles below the median are not tails: with too few
    samples for p50 to leave ten beyond it, the maximum is reported as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= MIN_BEYOND:
            return p, xs[rank - 1], n
    return 100, xs[-1], n


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    if parent == 0:
        return 0.0 if change == parent else math.inf
    gap = (change - parent) if better == "lower" else (parent - change)
    return gap / abs(parent)


def judge_metric(
    pairs: list[tuple[float, float]],
    better: str,
    bound: float | None,
    parent_failed: int = 0,
    change_failed: int = 0,
) -> dict:
    """Apply the gain / regression rule to one metric of one workload.

    ``pairs`` holds (parent value, change value) for each alternating pair.

    - ``regression``: the change's median is worse than the parent's by more
      than ``bound`` of the parent's median.
    - ``gain``: at least ``MIN_PAIRS`` pairs, the change wins at least nine
      tenths of them (ties count for neither side), the medians differ by
      more than the parent's interquartile range, and no more operations
      failed than at the parent.
    - ``unresolved``: the run-to-run spread of either side exceeds ``bound``,
      unless every change run reads better than every parent run.
    - ``unchanged``: none of the above.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if not pairs:
        raise ValueError("no pairs to judge")
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = -1 if better == "lower" else 1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    spread = max(relative_iqr(parent), relative_iqr(change))
    all_better = (
        min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    )
    worse = _worse_by(p_med, c_med, better)
    gain = (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (c_med - p_med) > p_q3 - p_q1
        and change_failed <= parent_failed
    )
    if bound is not None and worse > bound:
        verdict = "regression"
    elif gain:
        verdict = "gain"
    elif bound is not None and spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": p_q3 - p_q1,
        "spread": spread,
        "worse_by": worse,
        "bound": bound,
    }
