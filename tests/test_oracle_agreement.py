"""The oracle and the main checkers agree above the fuzz's frame sizes.

For every set-valued kind at m = 6, 7 and 8, on 10 and 64 situations,
seeded, each object valid and with one flipped bit, the main checker's
``agreement_key()`` (axiom names, outcomes and witness locations) equals
``oracle_verify``'s.
"""

import random

import pytest

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    GenConfig,
    IncidenceMap,
    IntervalStructure,
    Selector,
    SetValuedMap,
    ambiguity_from_interval,
    check_ambiguity_axioms,
    check_assignment,
    check_incidence_axioms,
    check_structure,
    gen_assignment,
    select_incidence,
    structure_from_assignment,
)
from ambicalc.oracle import oracle_verify

SEEDS = 4
SITUATIONS = (10, 64)


def flip(m: SetValuedMap, rng: random.Random) -> SetValuedMap:
    table = list(m.table)
    table[rng.randrange(len(table))] ^= 1 << rng.randrange(m.space.n)
    return SetValuedMap(m.frame, m.space, tuple(table))


def cases(m, seed):
    """(main report, oracle object) of every kind, valid then one-bit-faulty."""
    rng = random.Random(f"oracle-agreement/{m}/{seed}")
    j = gen_assignment(GenConfig(m=m, n=SITUATIONS[seed % 2], seed=seed))
    s = structure_from_assignment(j)
    amb = ambiguity_from_interval(s)
    inc = select_incidence(j, Selector.seeded(seed))
    for faulty in (False, True):
        f = (lambda t: flip(t, rng)) if faulty else (lambda t: t)
        cells = f(j.map)
        yield check_assignment(cells), BasicAssignment(cells)
        lower, upper = (f(s.lower), s.upper) if rng.randrange(2) else (s.lower, f(s.upper))
        yield check_structure(lower, upper), IntervalStructure(lower, upper)
        gap = f(amb.map)
        yield check_ambiguity_axioms(gap), AmbiguityMap(gap)
        image = f(inc.map)
        yield check_incidence_axioms(image), IncidenceMap(image, inc.origin)


@pytest.mark.parametrize("seed", range(SEEDS))
@pytest.mark.parametrize("m", [6, 7, 8])
def test_main_checkers_agree_with_the_oracle(m, seed):
    for report, obj in cases(m, seed):
        assert report.agreement_key() == oracle_verify(obj).agreement_key(), type(obj).__name__
