"""The main checkers and the oracle agree on every object of a small scope.

Every table at (m, n) ∈ {(1,1), (1,2), (2,1), (2,2)} is checked as a basic
assignment, an ambiguity map and an incidence map, and every (lower, upper)
pair at (1,1), (1,2) and (2,1) as an interval structure: 1,404 objects.  For
each, the main checker's ``agreement_key()`` (axiom names, outcomes and
witness locations) must equal ``oracle_verify``'s.  An incidence map takes
an arbitrary point map, as the oracle does not read it.

    PYTHONPATH=src python tests/test_small_scope.py

runs the larger scope: every table at m=3, n=2 for the three single-table
kinds (196,608 objects) and every pair at m=2, n=2 (65,536 structures).  It
prints the count of objects and disagreements per scope and exits 1 on any
disagreement.
"""

import itertools
import sys

import pytest

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    Frame,
    IncidenceMap,
    IntervalStructure,
    PointMap,
    SetValuedMap,
    SituationSpace,
    check_ambiguity_axioms,
    check_assignment,
    check_incidence_axioms,
    check_structure,
)
from ambicalc.oracle import oracle_verify

TABLE_SCOPES = ((1, 1), (1, 2), (2, 1), (2, 2))
PAIR_SCOPES = ((1, 1), (1, 2), (2, 1))


def every_table(m, n):
    """Every set-valued map of an m-atom frame into an n-situation space."""
    frame = Frame(tuple(f"x{k + 1}" for k in range(m)))
    space = SituationSpace(tuple(f"w{k + 1}" for k in range(n)))
    for table in itertools.product(range(1 << n), repeat=1 << m):
        yield SetValuedMap(frame, space, table)


def table_cases(m, n):
    """(main report, oracle object) of each single-table kind, every table."""
    for t in every_table(m, n):
        yield check_assignment(t), BasicAssignment(t)
        yield check_ambiguity_axioms(t), AmbiguityMap(t)
        yield check_incidence_axioms(t), IncidenceMap(t, PointMap((0,) * n))


def pair_cases(m, n):
    """(main report, oracle object) of every (lower, upper) pair."""
    tables = list(every_table(m, n))
    for lower, upper in itertools.product(tables, repeat=2):
        yield check_structure(lower, upper), IntervalStructure(lower, upper)


def disagreements(cases):
    """(objects, disagreeing objects) over ``cases``."""
    total = bad = 0
    for report, obj in cases:
        total += 1
        bad += report.agreement_key() != oracle_verify(obj).agreement_key()
    return total, bad


@pytest.mark.parametrize("m, n", TABLE_SCOPES)
def test_every_table_agrees_with_the_oracle(m, n):
    total, bad = disagreements(table_cases(m, n))
    assert total == 3 * (1 << n) ** (1 << m)
    assert bad == 0


@pytest.mark.parametrize("m, n", PAIR_SCOPES)
def test_every_pair_agrees_with_the_oracle(m, n):
    total, bad = disagreements(pair_cases(m, n))
    assert total == (1 << n) ** (2 << m)
    assert bad == 0


if __name__ == "__main__":
    failed = False
    for label, cases in (("tables m=3 n=2", table_cases(3, 2)),
                         ("pairs m=2 n=2", pair_cases(2, 2))):
        total, bad = disagreements(cases)
        print(f"{label}: {total} objects, {bad} disagreements", flush=True)
        failed |= bad > 0
    sys.exit(1 if failed else 0)
