"""Pair-axiom engine for the optimized axiom checkers.

Every pair axiom here holds for all 4^m pairs exactly when a local condition
holds (the set-valued ones act bitwise on situation masks; α3 is
submodularity): the ``*_failure`` tests decide each axiom in O(m·2^m) (α3 in
O(m²·2^m), a3.1 in O(m²) big-int operations per situation tested).  The
monotone, a3.2, compatibility and a3.1 tests are OR-zeta transforms of a
packed table, a3.1 two per atom on one-bit slots.  Each test reads its table
once, and a failing test on one set-valued table also returns every
situation where its axiom fails (a3.1 every one where the split form fails).

A failing test's pair is the witness a check reports: for compatibility and
α3 at every size, and for the others above ``SCAN_LIMIT`` atoms.  Up to it,
``smallest_witness`` swaps in the first pair A <= B of the ascending
``first_*_violation`` scan (every axiom here is symmetric).  A set-valued
axiom holds iff it holds situation by situation, so those scans search only
the failing situations, and row by row: the table packs into one int, and
for row A one bitwise formula over the families B ↦ t(A∩B) and B ↦ t(A∪B)
marks every B that violates the axiom with A.  The scans' trailing ``pairs``
argument is always None: it keeps the ``(…, size, pairs)`` shape that their
callers pass.

The module also holds the two list transforms over the 2^m subsets that the
tables are built from: ``zeta`` folds every entry into those of its
supersets, and ``joins`` builds a table from the entries of the singletons.
"""

from __future__ import annotations

import hashlib
from functools import cache, reduce
from itertools import chain, repeat
from operator import and_, or_

# the largest frame whose failing checks scan for the smallest witness
SCAN_LIMIT = 8

# cells that _pack turns into bytes at a time
_PACK_CHUNK = 1024


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from a tuple of labels and ints."""
    text = "\x1f".join(map(str, parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def smallest_witness(fault, scan, table):
    """The witness to report for ``fault``, a set-valued test's None or
    (pair, situations).

    None on a pass.  Above ``SCAN_LIMIT`` atoms a failure reports the test's
    own pair; up to it, the first pair of the ascending ``scan`` over
    ``table`` cut down to the situations where the axiom fails, the smallest
    violating pair: every violating pair violates it in one of them.
    """
    if fault is None:
        return None
    hit, within = fault
    if len(table) > 1 << SCAN_LIMIT:
        return hit
    return scan([cell & within for cell in table], len(table), None)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def union_hom_failure(t):
    """None when t(A∪B) = t(A) ∪ t(B) for every pair, else a pair where it
    fails and the situations where it does.

    Exact: that holds iff t(A) = t(A−low) ∪ t({low}) for every A ≠ ∅, where
    ``low`` is A's lowest atom; the first failure there is the pair
    (A−low, {low}).
    """
    hit, within = None, 0
    for a in range(1, len(t)):
        low = a & -a
        bad = t[a] ^ (t[a ^ low] | t[low])
        if bad:
            hit, within = hit or _pair(a ^ low, low), within | bad
    return None if hit is None else (hit, within)


def inter_hom_failure(t):
    """None when t(A∩B) = t(A) ∩ t(B) for every pair, else a pair where it
    fails and the situations where it does.

    The dual of ``union_hom_failure``: it holds iff t(A) = t(A+x) ∩ t(Θ−x) for
    every A ≠ Θ, where ``x`` is the lowest atom outside A; the first failure
    there is the pair (A+x, Θ−x), whose intersection is A.
    """
    full = len(t) - 1
    hit, within = None, 0
    for a in range(full):
        x = ~a & (a + 1)
        bad = t[a] ^ (t[a | x] & t[full ^ x])
        if bad:
            hit, within = hit or _pair(a | x, full ^ x), within | bad
    return None if hit is None else (hit, within)


def monotone_failure(t):
    """None when A ⊆ B implies t(A) ⊆ t(B), else a pair (A−x, A) where it
    fails and the situations where it does.

    Monotonicity is exactly the intersection bound t(A∩B) ⊆ t(A) ∩ t(B) and
    the union bound t(A) ∪ t(B) ⊆ t(A∪B) over all pairs, and it holds iff
    ∪_{C⊆A} t(C) ⊆ t(A) for every A, an OR-zeta transform.  Below the lowest
    A with some t(A−x) ⊄ t(A) the transform is t itself, so that A is the
    first failure; the pair takes its lowest such atom x.
    """
    found = _packed_fault(lambda m, k, s: _or_zeta(s, m, k) & ~s, t)
    if found is None:
        return None
    a, _, within = found
    low = next(1 << k for k in range(a.bit_length()) if a >> k & 1 and t[a ^ 1 << k] & ~t[a])
    return (a ^ low, a), within


def overlap_failure(t):
    """None when the images are pairwise disjoint, else the two lowest subsets
    whose images share the lowest situation counted twice, and every
    situation counted twice."""
    seen = twice = 0
    for cell in t:
        twice |= seen & cell
        seen |= cell
    if not twice:
        return None
    w = twice & -twice
    a, b = [k for k, cell in enumerate(t) if cell & w][:2]
    return (a, b), twice


def split_form_misses(t) -> int:
    """The situations ω where t(A) ∋ ω differs, for some A, from "the atoms
    whose singleton image holds ω lie partly in A and partly outside it",
    that is t(A) != meets(A) ∩ meets(¬A) with meets(A) = ∪_{x∈A} t({x}).

    The ambiguity axioms a1, a2, a3.1 and a3.2 hold together exactly when
    this is 0: when the split form holds in every situation."""
    size = len(t)
    meets = joins([t[1 << x] for x in range(size.bit_length() - 1)])
    misses = 0
    for a, ta in enumerate(t):
        misses |= ta ^ (meets[a] & meets[size - 1 ^ a])
    return misses


def _or_zeta(packed: int, m: int, k: int, up: bool = False) -> int:
    """A table packed in 2^m slots of k bits, slot A turned into the union of
    the slots B ⊆ A, or B ⊇ A when ``up``: per atom x, every slot without x
    takes in the one with x, or the reverse."""
    for x, hold in enumerate(_kept_holding(m, k) if m <= SCAN_LIMIT or k == 1 else _holding(m, k)):
        shift = k << x
        packed |= (packed & hold) >> shift if up else (packed << shift) & hold
    return packed


def zeta(values, op=or_) -> list:
    """Entry A is ``op`` over the entries of ``values`` at every B ⊆ A: one
    pass per atom x, in which each entry holding x takes in the entry
    without it."""
    out = list(values)
    bit = 1
    while bit < len(out):
        out = [op(v, out[a ^ bit]) if a & bit else v for a, v in enumerate(out)]
        bit <<= 1
    return out


def joins(singles, op=or_) -> list:
    """Entry A is ``op`` over ``singles[x]`` for the atoms x of A, and 0 at
    ∅: per atom in turn, the table doubles, its new half taking in that
    atom's entry."""
    table = [0]
    for single in singles:
        table += [op(v, single) for v in table]
    return table


def _first_bad(bad: int, size: int, low: int, k: int):
    """None when the packed ``bad`` (``size`` slots of k bits, situations
    from ``low``) is 0, else its first nonempty slot, that slot's lowest
    situation and the union of every slot."""
    if not bad:
        return None
    first, union = _lowest(bad), bad
    while size > 1:  # fold the upper half of the slots onto the lower
        size >>= 1
        union |= union >> size * k
    return first // k, 1 << low + first % k, (union & (1 << k) - 1) << low


def _packed_fault(bad, *tables):
    """``_first_bad`` of ``bad(m, k, *packed)``, the ``tables`` packed into
    slots of k bits that hold the situations of them all."""
    low, width = _layout(chain(*tables))
    if low < 0:
        return None
    m, k = len(tables[0]).bit_length() - 1, 8 * width
    found = bad(m, k, *(_pack(t, low, width) for t in tables))
    return _first_bad(found, len(tables[0]), low, k)


def mixed_inter_failure(t, misses):
    """None when t(A∩B) ∩ t(A∪B) ⊆ t(A) ∩ t(B) for every pair, else a pair
    where it fails and the situations where it does.

    Exact: per situation ω the subsets whose image holds ω must be
    order-convex, that is ∪_{C⊆A} t(C) ∩ ∪_{D⊇A} t(D) ⊆ t(A) for every A.
    That can fail only in ``misses``, the situations where the split form
    fails (``split_form_misses(t)``), so only those are packed.  For the
    lowest failing A and its lowest bad ω, take the lowest C ⊆ A and D ⊇ A
    whose images hold ω: the pair (A, C ∪ (D−A)) has meet C and join D.
    """
    found = _packed_fault(
        lambda m, k, s: _or_zeta(s, m, k) & _or_zeta(s, m, k, up=True) & ~s,
        [cell & misses for cell in t],
    )
    if found is None:
        return None
    a, w, within = found
    c = next(c for c in range(a) if not c & ~a and t[c] & w)
    d = next(d for d in range(a, len(t)) if not a & ~d and t[d] & w)
    return _pair(a, c | (d & ~a)), within


def _lowest(family: int) -> int:
    return (family & -family).bit_length() - 1


def _sublattice_failure(family: int, has: list) -> tuple[int, int] | None:
    """None when ``family`` (bit A set iff A is a member) is closed under ∪
    and ∩, else two members whose join or meet is no member; ``has[x]`` is
    the family of the subsets holding atom x.

    A non-member A ≠ ∅ is a join of members exactly when each atom x of A
    lies in some member below A, an OR-zeta of the members holding x; dually
    a non-member A ≠ Θ is a meet of members exactly when each atom x outside
    A is missed by some member above A.  The family is closed iff no
    non-member is either.  The lowest one that is, A, is rebuilt from the
    lowest such member for each of those atoms in turn, and the first join
    or meet that is no member names the pair.
    """
    m, everything = len(has), (1 << (1 << len(has))) - 1
    # ∅ and every A with an atom no member below A holds; Θ and every A with
    # an atom outside it that every member above A holds (each OR-zeta lies
    # inside its mask, so XOR takes the difference)
    unjoined, unmet = 1, everything ^ everything >> 1
    for hold in has:
        held = family & hold
        unjoined |= hold ^ _or_zeta(held, m, 1)
        unmet |= everything ^ hold ^ _or_zeta(family ^ held, m, 1, up=True)
    bad = (everything ^ family) & ~(unjoined & unmet)
    if not bad:
        return None
    a = _lowest(bad)
    if not unjoined >> a & 1:  # the members below A, each holding an atom of A
        below = reduce(and_, (~hold for x, hold in enumerate(has) if not a >> x & 1), family)
        parts, op = [_lowest(below & hold) for x, hold in enumerate(has) if a >> x & 1], or_
    else:  # the members above A, each missing an atom outside A
        above = reduce(and_, (hold for x, hold in enumerate(has) if a >> x & 1), family)
        parts, op = [_lowest(above & ~hold) for x, hold in enumerate(has) if not a >> x & 1], and_
    cur = parts[0]
    for part in parts[1:]:
        if not family >> op(cur, part) & 1:
            return _pair(cur, part)
        cur = op(cur, part)
    # the last step gives A, which is no member, so this always returns


def mixed_union_failure(t, misses):
    """None when t(A∩B) ∪ t(A∪B) ⊆ t(A) ∪ t(B) for every pair, else a pair
    where it fails and the situations where the split form fails, which
    hold every situation where it does.

    Exact: per situation ω the subsets whose image misses ω must be closed
    under ∪ and ∩.  Only a situation where the split form fails can break
    that, so each of those, lowest first, has its subsets tested as one
    2^m-bit family by ``_sublattice_failure``.  ``misses`` is
    ``split_form_misses(t)``.
    """
    size = len(t)
    everything = (1 << size) - 1
    has = _kept_holding(size.bit_length() - 1, 1)  # the subsets holding atom x
    rest = misses
    while rest:
        w = _lowest(rest)
        rest &= rest - 1
        holding = int("".join("01"[cell >> w & 1] for cell in reversed(t)), 2)
        hit = _sublattice_failure(everything ^ holding, has)
        if hit is not None:
            return hit, misses
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
    """None when a(A) ∪ a(B) ⊆ i(A∪B) ∪ a(A∪B) for every pair, else the pair
    A, U−A, the lower first, where it fails.

    Exact for any two tables: that holds iff ∪_{A⊆U} a(A) ⊆ i(U) ∪ a(U) for
    every U, and the left side is the OR-zeta transform of ``amb``.  U is
    the lowest failing subset and A the lowest subset of U whose image holds
    U's lowest bad situation, which a(U) misses, so A ≠ U.
    """
    found = _packed_fault(lambda m, k, a, i: _or_zeta(a, m, k) & ~(i | a), amb, inc)
    if found is None:
        return None
    u, w, _ = found
    a = next(a for a in range(u) if not a & ~u and amb[a] & w)
    return _pair(a, u ^ a)


def _layout(t) -> tuple[int, int]:
    """(low, width): slots of ``width`` bytes hold the situations of the
    cells ``t`` from their lowest, ``low`` (-1 when they have none)."""
    within = reduce(or_, t, 0)
    low = _lowest(within)
    return low, -(-(within.bit_length() - low) // 8)


def _pack(cells, low: int, width: int) -> int:
    """The table ``cells`` as one int, entry B shifted down by ``low`` in the
    ``width``-byte slot B.  It goes through one buffer in chunks of
    ``_PACK_CHUNK`` cells, so only one chunk's ``bytes`` are alive at once."""
    raw = bytearray()
    for start in range(0, len(cells), _PACK_CHUNK):
        chunk = cells[start : start + _PACK_CHUNK]
        if low:
            chunk = [cell >> low for cell in chunk]
        raw += b"".join(map(int.to_bytes, chunk, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def _holding(m: int, k: int):
    """For an int of 2^m slots of k bits, slot B at bit B·k: for each atom x
    in turn, the int with every bit set in the slots of the subsets holding
    x.  Built by doubling, as long division of such ints is quadratic."""
    total = k << m
    for x in range(m):
        block, period = (1 << (k << x)) - 1 << (k << x), 2 * k << x
        while period < total:
            block |= block << period
            period <<= 1
        yield block


@cache
def _kept_holding(m: int, k: int) -> tuple:
    """``_holding``, kept for the frames up to ``SCAN_LIMIT`` atoms, whose
    checks and scans ask for it again and again, and for one-bit slots at
    every m, which the a3.1 test asks for 2m times per situation.  Each
    key's masks take m·k·2^m bits: at most 16 KB for n <= 64 situations up
    to ``SCAN_LIMIT``, and 128 KB for one-bit slots at 16 atoms.  Wider
    slots above ``SCAN_LIMIT`` are built afresh: a check builds them a few
    times, and each is k·2^m bits, so they are not kept."""
    return tuple(_holding(m, k))


def _first_in_families(t, size, rule, meets=False, joins=False):
    """The first (A, B), A <= B in ascending order, where ``rule(Â, S, M, J)``
    marks slot B, or None.

    S is ``t`` packed into slots, Â row A's slot copied into every slot, and
    M and J the families B ↦ t(A∩B) and B ↦ t(A∪B) when ``meets`` and
    ``joins`` ask for them.  A slot holds the situations from the lowest of
    ``t``'s up to its highest.
    """
    low, width = _layout(t)
    if low < 0:
        return None
    k, slot = 8 * width, (1 << 8 * width) - 1
    full = (1 << k * size) - 1
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * size, "little")  # a 1 in every slot
    has = _kept_holding(size.bit_length() - 1, k)
    without = [full ^ hold for hold in has]
    table = _pack(t, low, width)
    for a in range(size):
        meet = join = table
        for x, (hold, miss) in enumerate(zip(has, without)):
            if a >> x & 1:
                if joins:
                    kept = join & hold
                    join = kept | kept >> (k << x)
            elif meets:
                kept = meet & miss
                meet = kept | kept << (k << x)
        marks = rule((table >> a * k & slot) * ones, table, meet, join) >> a * k
        if marks:
            return a, a + _lowest(marks) // k
    return None


def first_union_hom_violation(t, size, pairs):
    """First (A, B) with t(A∪B) != t(A) ∪ t(B)."""
    return _first_in_families(t, size, lambda row, s, meet, join: join ^ (row | s), joins=True)


def first_inter_hom_violation(t, size, pairs):
    """First (A, B) with t(A∩B) != t(A) ∩ t(B)."""
    return _first_in_families(t, size, lambda row, s, meet, join: meet ^ (row & s), meets=True)


def first_inter_bound_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ⊄ t(A) ∩ t(B)."""
    return _first_in_families(t, size, lambda row, s, meet, join: meet & ~(row & s), meets=True)


def first_union_bound_violation(t, size, pairs):
    """First (A, B) with t(A) ∪ t(B) ⊄ t(A∪B)."""
    return _first_in_families(t, size, lambda row, s, meet, join: (row | s) & ~join, joins=True)


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
    return _first_in_families(
        t, size, lambda row, s, meet, join: (meet | join) & ~(row | s), meets=True, joins=True
    )


def first_mixed_inter_violation(t, size, pairs):
    """First (A, B) with t(A∩B) ∩ t(A∪B) ⊄ t(A) ∩ t(B)."""
    return _first_in_families(
        t, size, lambda row, s, meet, join: meet & join & ~(row & s), meets=True, joins=True
    )
