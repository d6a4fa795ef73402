"""Every checker's report, and every validating constructor's error, byte
for byte, on a seeded m ∈ {1…6, 9}, n ∈ {1, 3, 10} corpus.

Each corpus entry is a random basic assignment, its lower, upper, gap and
incidence tables, a probability and the α table it gives, written valid,
with 1, 2 and 3 flipped bits, and as fully random tables.  Each m has one
SHA-256 digest over ``to_json_obj()`` and ``to_lines()`` of every report,
and over the exception class and text (or a pass) of every constructor that
validates its input.

    PYTHONPATH=src python tests/test_verdict_digests.py

prints the digests of the program on the path.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ambicalc import (
    AmbicalcError,
    AmbiguityMap,
    BasicAssignment,
    Frame,
    IncidenceMap,
    IntervalStructure,
    PointMap,
    ProbabilityAssignment,
    SetValuedMap,
    SituationSpace,
    belief_from_structure,
    check_ambiguity_axioms,
    check_assignment,
    check_belief_identity,
    check_compatibility,
    check_duality,
    check_incidence_axioms,
    check_lower_axioms,
    check_sandwich,
    check_structure,
    check_upper_axioms,
    compose_interval,
    fishburn_report,
    incidence_from_map,
    make_interval_structure,
    mass_from_structure,
    structure_from_assignment,
)
from ambicalc.numeric import as_numerators

EXPECTED = {
    1: "32ccae37f91b3f882d6a38675626d2a3107754bc43bff80f4e1e98f386555363",
    2: "facac23719486b1e508d53cd155a3aa454109ded032ebd3ee4cd773bd7179728",
    3: "d2526150464f8cb76f45ebb24324bef0654924a1cb2720090c9dec0ce5be7a45",
    4: "bc412423b01b2d3d38b1ba0d67971ce45c299c0ae505824d2c84f562a087c1a7",
    5: "1816e9adf228d4c29680da2ab3527346b7a9160188a33e51bcf006db58f2c51b",
    6: "dedd0902d420e1278066600237f1911572ed7a9fa543da055e8d2fb7470bb03c",
    9: "e4f318d78491f3a095ec9a3be037b819c4425b208fb63b5a8da6142c6b96ba85",
}

SEEDS = 7
SITUATIONS = (1, 3, 10)
VARIANTS = ("valid", "flip1", "flip2", "flip3", "random")


def flipped(table, bits, flips, rng):
    out = list(table)
    for _ in range(flips):
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(bits)
    return out


def nudged(values, flips, rng):
    out = list(values)
    for _ in range(flips):
        out[rng.randrange(len(out))] += Fraction(rng.choice((-1, 1)), rng.choice((2, 3, 7)))
    return tuple(out)


def stand_in(frame, **tables):
    """A report stand-in: each Fraction table as ``<name>_num`` integers over
    the tables' least common ``denominator``."""
    nums, den = as_numerators([v for table in tables.values() for v in table])
    scaled, start = {}, 0
    for name, table in tables.items():
        scaled[f"{name}_num"] = nums[start : start + len(table)]
        start += len(table)
    return SimpleNamespace(frame=frame, denominator=den, **scaled)


def tables(m, n, rng):
    """Cells, lower, upper, gap and incidence tables, and the point map."""
    size = 1 << m
    cells = [0] * size
    targets = []
    for w in range(n):
        focal = rng.randrange(1, size)
        cells[focal] |= 1 << w
        atoms = [x for x in range(m) if focal >> x & 1]
        targets.append(rng.choice(atoms) if rng.randrange(2) else rng.randrange(m))
    lower = list(cells)
    for k in range(m):
        for a in range(size):
            if a >> k & 1:
                lower[a] |= lower[a ^ 1 << k]
    omega = (1 << n) - 1
    upper = [omega ^ lower[size - 1 ^ a] for a in range(size)]
    gap = [u & ~lo for lo, u in zip(lower, upper)]
    inc = [sum(1 << w for w, x in enumerate(targets) if a >> x & 1) for a in range(size)]
    return [cells, lower, upper, gap, inc], PointMap(tuple(targets))


def outcome(build):
    try:
        build()
    except AmbicalcError as exc:
        return [type(exc).__name__, str(exc)]
    return "ok"


def entries(m):
    """(label, report or outcome) for every case of m's corpus."""
    fr = Frame(tuple(f"x{k + 1}" for k in range(m)))
    for n in SITUATIONS:
        sp = SituationSpace(tuple(f"w{k + 1}" for k in range(n)))
        omega = (1 << n) - 1
        for seed in range(SEEDS):
            rng = random.Random(f"verdict-digests/{m}/{n}/{seed}")
            valid, points = tables(m, n, rng)
            weights = [rng.randrange(4) for _ in range(n - 1)] + [1]
            prob = ProbabilityAssignment.from_integers(sp, weights)
            s = structure_from_assignment(BasicAssignment(SetValuedMap(fr, sp, valid[0])))
            beliefs = belief_from_structure(s, prob)
            mass = mass_from_structure(s, prob)
            for flips, variant in enumerate(VARIANTS):
                if variant == "random":
                    t = [[rng.randrange(omega + 1) for _ in range(1 << m)] for _ in valid]
                    alpha = tuple(Fraction(rng.randrange(-1, 4), 3) for _ in range(1 << m))
                else:
                    t = [flipped(table, n, flips, rng) for table in valid]
                    alpha = nudged(beliefs.alpha, flips, rng)
                cells, lower, upper, gap, inc = (SetValuedMap(fr, sp, x) for x in t)
                structure = IntervalStructure(lower, upper)
                incidence = IncidenceMap(inc, points)
                ambiguity = AmbiguityMap(gap)
                label = f"{n}/{seed}/{variant}"
                yield label + "/assignment", check_assignment(cells)
                yield label + "/upper", check_upper_axioms(upper)
                yield label + "/lower", check_lower_axioms(lower)
                yield label + "/duality", check_duality(lower, upper)
                yield label + "/structure", check_structure(lower, upper)
                yield label + "/ambiguity", check_ambiguity_axioms(gap)
                yield label + "/incidence", check_incidence_axioms(inc)
                yield label + "/sandwich", check_sandwich(structure, incidence)
                yield label + "/compatibility", check_compatibility(incidence, ambiguity)
                yield label + "/fishburn", fishburn_report(stand_in(fr, alpha=alpha))
                perturbed = stand_in(
                    fr,
                    bel=nudged(beliefs.bel, flips, rng),
                    pl=nudged(beliefs.pl, flips, rng),
                )
                yield label + "/belief", check_belief_identity(perturbed, mass)
                yield label + "/make", outcome(lambda: make_interval_structure(lower, upper))
                yield label + "/compose", outcome(lambda: compose_interval(incidence, ambiguity))
                yield label + "/from-assignment", outcome(
                    lambda: structure_from_assignment(BasicAssignment(cells))
                )
                yield label + "/from-map", outcome(lambda: incidence_from_map(inc))


def digest(m):
    sha = hashlib.sha256()
    for label, result in entries(m):
        if not isinstance(result, (str, list)):
            result = [result.to_json_obj(), result.to_lines()]
        sha.update(json.dumps([label, result], ensure_ascii=False).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("m", sorted(EXPECTED))
def test_every_report_and_constructor_error_is_unchanged(m):
    assert digest(m) == EXPECTED[m]


if __name__ == "__main__":
    for m in sorted(EXPECTED):
        print(f"    {m}: \"{digest(m)}\",")
    sys.exit(0)
