"""Pair-axiom engine for the optimized axiom checkers.

Every pair axiom here holds for all 4^m pairs exactly when a local condition
holds (the set-valued ones act bitwise on situation masks; α3 is
submodularity): the ``*_failure`` tests decide each axiom in O(m·2^m) (α3 in
O(m²·2^m)) and return a pair that violates it, or None.  A check calls the
ascending ``first_*_violation`` scan only when its test fails, to locate the
witness it reports.

Every binary axiom here is symmetric in (A, B), so exhaustive scans walk the
unordered pairs A <= B; that covers all 4^m ordered pairs and still yields the
lexicographically smallest witness.  Past the exhaustive limit a seeded sample
is used instead, always topped up with the structured pairs (A, ¬A), (A, ∅),
(A, Θ) and (A, A) for every A; when the sample misses a failure the exact test
found, the test's own pair is the witness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from a tuple of labels and ints."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SweepPolicy:
    """How the witness scans walk the pairs.

    Frames with at most ``exhaustive_limit`` atoms are always swept in full;
    larger ones draw ``samples`` seeded pairs plus the structured pairs.
    ``force_exhaustive`` overrides the limit.
    """

    exhaustive_limit: int = 8
    samples: int = 1_000_000
    seed: int = 0
    force_exhaustive: bool = False


DEFAULT_POLICY = SweepPolicy()


def pair_samples(m: int, policy: SweepPolicy | None) -> list[tuple[int, int]] | None:
    """Sampled (A, B) list for big frames, or None when the sweep is exhaustive."""
    policy = policy or DEFAULT_POLICY
    if policy.force_exhaustive or m <= policy.exhaustive_limit:
        return None
    size = 1 << m
    full = size - 1
    pairs = []
    for a in range(size):
        pairs.append((a, full ^ a))
        pairs.append((a, 0))
        pairs.append((a, full))
        pairs.append((a, a))
    rng = random.Random(derive_seed("pair-sweep", policy.seed, m))
    for _ in range(policy.samples):
        pairs.append((rng.randrange(size), rng.randrange(size)))
    return pairs


def lazy_pair_samples(m: int, policy: SweepPolicy | None):
    """``pair_samples(m, policy)`` as a call that builds the list on first use
    and returns the same list after that."""
    built = []

    def pairs():
        if not built:
            built.append(pair_samples(m, policy))
        return built[0]

    return pairs


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def union_hom_failure(t):
    """None when t(A∪B) = t(A) ∪ t(B) for every pair, else a pair where it fails.

    Exact: that holds iff t(A) = t(A−low) ∪ t({low}) for every A ≠ ∅, where
    ``low`` is A's lowest atom; a failure there is the pair (A−low, {low}).
    """
    for a in range(1, len(t)):
        low = a & -a
        if t[a] != t[a ^ low] | t[low]:
            return _pair(a ^ low, low)
    return None


def inter_hom_failure(t):
    """None when t(A∩B) = t(A) ∩ t(B) for every pair, else a pair where it fails.

    The dual of ``union_hom_failure``: it holds iff t(A) = t(A+x) ∩ t(Θ−x) for
    every A ≠ Θ, where ``x`` is the lowest atom outside A; a failure there is
    the pair (A+x, Θ−x), whose intersection is A.
    """
    full = len(t) - 1
    for a in range(full):
        x = ~a & (a + 1)
        if t[a] != t[a | x] & t[full ^ x]:
            return _pair(a | x, full ^ x)
    return None


def monotone_failure(t):
    """None when A ⊆ B implies t(A) ⊆ t(B), else a pair (A−x, A) where it fails.

    Monotonicity is exactly the intersection bound t(A∩B) ⊆ t(A) ∩ t(B) and
    the union bound t(A) ∪ t(B) ⊆ t(A∪B) over all pairs, and it holds iff
    t(A−x) ⊆ t(A) for every A and every atom x of A.
    """
    for a in range(1, len(t)):
        ta = t[a]
        rest = a
        while rest:
            x = rest & -rest
            if t[a ^ x] & ~ta:
                return a ^ x, a
            rest ^= x
    return None


def overlap_failure(t):
    """None when the images are pairwise disjoint, else the two lowest subsets
    whose images share the lowest situation counted twice.

    Exact: the images are disjoint iff their popcounts add up to the popcount
    of their union.
    """
    union = weight = 0
    for cell in t:
        union |= cell
        weight += cell.bit_count()
    if weight == union.bit_count():
        return None
    seen = twice = 0
    for cell in t:
        twice |= seen & cell
        seen |= cell
    w = twice & -twice
    a, b = [k for k, cell in enumerate(t) if cell & w][:2]
    return a, b


def split_form_holds(t) -> bool:
    """True iff the ambiguity axioms a1, a2, a3.1 and a3.2 hold together.

    Exact: they hold iff t(A) = meets(A) ∩ meets(¬A) for every A, where
    meets(A) = ∪_{x∈A} t({x}); per situation ω, t(A) ∋ ω iff the atoms whose
    singleton image holds ω lie partly in A and partly outside it.  The test
    rejects the four axioms jointly and names no pair.
    """
    size = len(t)
    full = size - 1
    meets = [0] * size
    for a in range(1, size):
        low = a & -a
        meets[a] = meets[a ^ low] | t[low]
    return all(t[a] == meets[a] & meets[full ^ a] for a in range(size))


def submodular_failure(t):
    """None when t(A∩B) + t(A∪B) <= t(A) + t(B) for every pair of an integer
    table, else a pair (A+x, A+y) where it fails.

    Exact: submodularity holds iff t(A) + t(A+x+y) <= t(A+x) + t(A+y) for
    every A and atoms x < y outside A (Fujishige, *Submodular Functions and
    Optimization*).
    """
    size = len(t)
    for a in range(size):
        ta = t[a]
        rest = ~a & (size - 1)
        while rest:
            x = rest & -rest
            rest ^= x
            tx = t[a | x]
            others = rest
            while others:
                y = others & -others
                others ^= y
                if ta + t[a | x | y] > tx + t[a | y]:
                    return a | x, a | y
    return None


def compat_failure(amb, inc):
    """None when a(A) ∪ a(B) ⊆ i(A∪B) ∪ a(A∪B) for every pair, else a pair
    (A, U) with A ⊆ U where it fails.

    Exact for any two tables: that holds iff ∪_{A⊆U} a(A) ⊆ i(U) ∪ a(U) for
    every U, and the left side is the OR-zeta transform of ``amb``.
    """
    size = len(amb)
    below = list(amb)
    bit = 1
    while bit < size:
        for u in range(size):
            if u & bit:
                below[u] |= below[u ^ bit]
        bit <<= 1
    for u in range(size):
        bad = below[u] & ~(inc[u] | amb[u])
        if bad:
            w = bad & -bad
            a = next(a for a in range(u + 1) if not a & ~u and amb[a] & w)
            return a, u
    return None


def first_union_hom_violation(t, size, pairs):
    """First (A, B) with t(A∪B) != t(A) ∪ t(B)."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if t[a | b] != ta | t[b]:
                    return a, b
        return None
    for a, b in pairs:
        if t[a | b] != t[a] | t[b]:
            return a, b
    return None


def first_inter_hom_violation(t, size, pairs):
    """First (A, B) with t(A∩B) != t(A) ∩ t(B)."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if t[a & b] != ta & t[b]:
                    return a, b
        return None
    for a, b in pairs:
        if t[a & b] != t[a] & t[b]:
            return a, b
    return None


def first_inter_bound_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ⊄ t(A) ∩ t(B)."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if t[a & b] & ~(ta & t[b]):
                    return a, b
        return None
    for a, b in pairs:
        if t[a & b] & ~(t[a] & t[b]):
            return a, b
    return None


def first_union_bound_violation(t, size, pairs):
    """First (A, B) with t(A) ∪ t(B) ⊄ t(A∪B)."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if (ta | t[b]) & ~t[a | b]:
                    return a, b
        return None
    for a, b in pairs:
        if (t[a] | t[b]) & ~t[a | b]:
            return a, b
    return None


def first_overlap_violation(t, size, pairs):
    """First A != B whose images intersect."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            if not ta:
                continue
            for b in range(a + 1, size):
                if ta & t[b]:
                    return a, b
        return None
    for a, b in pairs:
        if a != b and t[a] & t[b]:
            return a, b
    return None


def first_mixed_union_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ∪ t(A∪B) ⊄ t(A) ∪ t(B)."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if (t[a & b] | t[a | b]) & ~(ta | t[b]):
                    return a, b
        return None
    for a, b in pairs:
        if (t[a & b] | t[a | b]) & ~(t[a] | t[b]):
            return a, b
    return None


def first_mixed_inter_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ∩ t(A∪B) ⊄ t(A) ∩ t(B)."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if t[a & b] & t[a | b] & ~(ta & t[b]):
                    return a, b
        return None
    for a, b in pairs:
        if t[a & b] & t[a | b] & ~(t[a] & t[b]):
            return a, b
    return None


def first_compat_violation(amb, inc, size, pairs):
    """First (A, B) with a(A) ∪ a(B) ⊄ i(A∪B) ∪ a(A∪B)."""
    if pairs is None:
        for a in range(size):
            ta = amb[a]
            for b in range(a, size):
                u = a | b
                if (ta | amb[b]) & ~(inc[u] | amb[u]):
                    return a, b
        return None
    for a, b in pairs:
        u = a | b
        if (amb[a] | amb[b]) & ~(inc[u] | amb[u]):
            return a, b
    return None


def first_submodular_violation(t, size, pairs):
    """First (A, B) with t(A∩B) + t(A∪B) > t(A) + t(B), on an integer table."""
    if pairs is None:
        for a in range(size):
            ta = t[a]
            for b in range(a, size):
                if t[a & b] + t[a | b] > ta + t[b]:
                    return a, b
        return None
    for a, b in pairs:
        if t[a & b] + t[a | b] > t[a] + t[b]:
            return a, b
    return None
