"""Pair-axiom engine for the optimized axiom checkers.

Every pair axiom here holds for all 4^m pairs exactly when a local condition
holds (the set-valued ones act bitwise on situation masks; α3 is
submodularity): the ``*_failure`` tests decide each axiom in O(m·2^m) (α3 in
O(m²·2^m), a3.1 in O(m²) big-int operations per situation tested) and return
a pair that violates it, or None.

A failing test's pair is the witness a check reports above ``SCAN_LIMIT``
atoms; up to it, ``smallest_witness`` swaps in the first pair of the ascending
``first_*_violation`` scan.  Every binary axiom here is symmetric in (A, B),
so the scans walk the unordered pairs A <= B; that covers all 4^m ordered
pairs and still yields the lexicographically smallest witness.  The scans'
trailing ``pairs`` argument is always None: it keeps the ``(…, size, pairs)``
shape that their callers pass.
"""

from __future__ import annotations

import hashlib

# the largest frame whose failing checks scan for the smallest witness
SCAN_LIMIT = 8


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from a tuple of labels and ints."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def smallest_witness(hit, scan, *tables):
    """The witness to report for ``hit``, a test's pair or None on a pass.

    Up to ``SCAN_LIMIT`` atoms a failure reports the first pair of the
    ascending ``scan`` over ``tables``, the smallest violating pair; above
    it, ``hit`` itself.
    """
    size = len(tables[0])
    if hit is None or size > 1 << SCAN_LIMIT:
        return hit
    return scan(*tables, size, None)


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


def split_form_misses(t) -> int:
    """The situations ω where t(A) ∋ ω differs, for some A, from "the atoms
    whose singleton image holds ω lie partly in A and partly outside it",
    that is t(A) != meets(A) ∩ meets(¬A) with meets(A) = ∪_{x∈A} t({x}).

    The ambiguity axioms a1, a2, a3.1 and a3.2 hold together exactly when
    this is 0: when the split form holds in every situation."""
    size = len(t)
    meets = [0] * size
    for a in range(1, size):
        low = a & -a
        meets[a] = meets[a ^ low] | t[low]
    misses = 0
    for a, ta in enumerate(t):
        misses |= ta ^ (meets[a] & meets[size - 1 ^ a])
    return misses


def _or_zeta(t, up: bool = False) -> list:
    """out[A] = ∪ t(B) over the B ⊆ A, or over the B ⊇ A when ``up``."""
    out = list(t)
    bit = 1
    while bit < len(out):
        if up:
            out = [v if a & bit else v | out[a | bit] for a, v in enumerate(out)]
        else:
            out = [v | out[a ^ bit] if a & bit else v for a, v in enumerate(out)]
        bit <<= 1
    return out


def mixed_inter_failure(t):
    """None when t(A∩B) ∩ t(A∪B) ⊆ t(A) ∩ t(B) for every pair, else a pair
    where it fails.

    Exact: per situation ω the subsets whose image holds ω must be
    order-convex, that is ∪_{C⊆A} t(C) ∩ ∪_{D⊇A} t(D) ⊆ t(A) for every A.
    For the lowest failing A and its lowest bad ω, take the lowest C ⊆ A and
    D ⊇ A whose images hold ω: the pair (A, C ∪ (D−A)) has meet C and join D.
    """
    below, above = _or_zeta(t), _or_zeta(t, up=True)
    for a, ta in enumerate(t):
        bad = below[a] & above[a] & ~ta
        if bad:
            w = bad & -bad
            c = next(c for c in range(a) if not c & ~a and t[c] & w)
            d = next(d for d in range(a, len(t)) if not a & ~d and t[d] & w)
            return _pair(a, c | (d & ~a))
    return None


def _lowest(family: int) -> int:
    return (family & -family).bit_length() - 1


def _sublattice_failure(family: int, has: list) -> tuple[int, int] | None:
    """None when ``family`` (bit A set iff A is a member) is closed under ∪
    and ∩, else two members whose meet or join is no member; ``has[x]`` is
    the family of the subsets holding atom x.

    By Birkhoff's representation of finite distributive lattices, a nonempty
    family is closed iff it holds every A with L ⊆ A ⊆ U and c(x) ⊆ A for
    each x ∈ A, where L and U are the meet and the join of all members and
    c(x) is the meet of the members holding x; every family lies inside that
    set.  The lowest such A missing is rebuilt from members, by meets down to
    L and to each c(x) and then joins up to A; the first step whose result is
    no member names the pair.
    """
    if not family:
        return None
    atoms = range(len(has))

    def meet(members):
        return sum(1 << x for x in atoms if not members & ~has[x])

    low = meet(family)
    core = {x: meet(family & has[x]) for x in atoms if family & has[x]}
    closed = (1 << (1 << len(has))) - 1
    for x in atoms:
        if low >> x & 1:
            closed &= has[x]
        if x not in core:
            closed &= ~has[x]
        for y in atoms:
            if core.get(x, 0) >> y & 1:
                closed &= ~has[x] | has[y]
    if closed == family:
        return None
    target = _lowest(closed & ~family)

    def meets(members, goal):
        cur = _lowest(members)
        while cur != goal:
            other = _lowest(members & ~has[_lowest(cur & ~goal)])
            yield cur, other, cur & other
            cur &= other

    def steps():
        yield from meets(family, low)
        cur = low
        for x in atoms:
            if target >> x & 1 and not cur >> x & 1:
                yield from meets(family & has[x], core[x])
                yield cur, core[x], cur | core[x]
                cur |= core[x]

    # the last join gives target, which is no member, so this always returns
    for a, b, result in steps():
        if not family >> result & 1:
            return _pair(a, b)


def mixed_union_failure(t, misses=None):
    """None when t(A∩B) ∪ t(A∪B) ⊆ t(A) ∪ t(B) for every pair, else a pair
    where it fails.

    Exact: per situation ω the subsets whose image misses ω must be closed
    under ∪ and ∩.  Only a situation where the split form fails can break
    that, so each of those, lowest first, has its subsets tested as one
    2^m-bit family by ``_sublattice_failure``.  ``misses`` is
    ``split_form_misses(t)`` when the caller has it already.
    """
    size = len(t)
    everything = (1 << size) - 1
    has = []  # the subsets holding atom x: 2^x bits clear, 2^x set, repeated
    for x in range(size.bit_length() - 1):
        half = 1 << x
        has.append((((1 << half) - 1) << half) * everything // ((1 << 2 * half) - 1))
    if misses is None:
        misses = split_form_misses(t)
    while misses:
        w = _lowest(misses)
        misses &= misses - 1
        holding = int("".join("01"[cell >> w & 1] for cell in reversed(t)), 2)
        hit = _sublattice_failure(everything ^ holding, has)
        if hit is not None:
            return hit
    return None


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
    below = _or_zeta(amb)
    for u, cell in enumerate(below):
        bad = cell & ~(inc[u] | amb[u])
        if bad:
            w = bad & -bad
            a = next(a for a in range(u + 1) if not a & ~u and amb[a] & w)
            return a, u
    return None


def first_union_hom_violation(t, size, pairs):
    """First (A, B) with t(A∪B) != t(A) ∪ t(B)."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if t[a | b] != ta | t[b]:
                return a, b
    return None


def first_inter_hom_violation(t, size, pairs):
    """First (A, B) with t(A∩B) != t(A) ∩ t(B)."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if t[a & b] != ta & t[b]:
                return a, b
    return None


def first_inter_bound_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ⊄ t(A) ∩ t(B)."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if t[a & b] & ~(ta & t[b]):
                return a, b
    return None


def first_union_bound_violation(t, size, pairs):
    """First (A, B) with t(A) ∪ t(B) ⊄ t(A∪B)."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if (ta | t[b]) & ~t[a | b]:
                return a, b
    return None


def first_overlap_violation(t, size, pairs):
    """First A != B whose images intersect."""
    for a in range(size):
        ta = t[a]
        if not ta:
            continue
        for b in range(a + 1, size):
            if ta & t[b]:
                return a, b
    return None


def first_mixed_union_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ∪ t(A∪B) ⊄ t(A) ∪ t(B)."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if (t[a & b] | t[a | b]) & ~(ta | t[b]):
                return a, b
    return None


def first_mixed_inter_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ∩ t(A∪B) ⊄ t(A) ∩ t(B)."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if t[a & b] & t[a | b] & ~(ta & t[b]):
                return a, b
    return None


def first_compat_violation(amb, inc, size, pairs):
    """First (A, B) with a(A) ∪ a(B) ⊄ i(A∪B) ∪ a(A∪B)."""
    for a in range(size):
        ta = amb[a]
        for b in range(a, size):
            u = a | b
            if (ta | amb[b]) & ~(inc[u] | amb[u]):
                return a, b
    return None


def first_submodular_violation(t, size, pairs):
    """First (A, B) with t(A∩B) + t(A∪B) > t(A) + t(B), on an integer table."""
    for a in range(size):
        ta = t[a]
        for b in range(a, size):
            if t[a & b] + t[a | b] > ta + t[b]:
                return a, b
    return None
