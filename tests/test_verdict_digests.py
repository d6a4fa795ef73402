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
    2: "0d57f4cfbdba25db44c48120582121ff20ae369a37e35bc053da1351e14a8802",
    3: "91acb5b18b9a7fa06f38ae96d882ea46b684de21c29facad14b4336661376b24",
    4: "83a1d24f3f9d9b14067970b899ac42052b341fa57b8aff14d16d94e31c10c3b2",
    5: "17d47ce65e3f8938c4b6cc948fefc9c5d8cde484fca5a4604e6b4a30dfb9a857",
    6: "80c9109b1830fd50bc79ad8a497733631103021a74374577e2c131f49cb600cc",
    9: "52a589786b37de26f1a2a6670073db9f52a6f9de6621269f65746e69867804a8",
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
