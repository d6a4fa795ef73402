"""The main checkers and the oracle agree on every object of a small scope.

Every table at (m, n) ∈ {(1,1), (1,2), (2,1), (2,2)} is checked as a basic
assignment, an ambiguity map and an incidence map, and every (lower, upper)
pair at (1,1), (1,2) and (2,1) as an interval structure: 1,404 objects.  For
each, the main checker's ``agreement_key()`` (axiom names, outcomes and
witness locations) must equal ``oracle_verify``'s.  An incidence map takes
an arbitrary point map, as the oracle does not read it.  Every basic
assignment at those (m, n), 14 partitions, must come back from
``extract_assignment`` of its structure, equal to ``oracle_extract_table``.

    PYTHONPATH=src python tests/test_small_scope.py

runs the larger scope: every table at m=3, n=2 for the three single-table
kinds (196,608 objects), every pair at m=2, n=2 (65,536 structures) and
every partition at m=3, n=2 (49 assignments).  It prints the count of
objects and disagreements per scope and exits 1 on any disagreement.
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
    extract_assignment,
    structure_from_assignment,
)
from ambicalc.oracle import oracle_extract_table, oracle_verify

TABLE_SCOPES = ((1, 1), (1, 2), (2, 1), (2, 2))
PAIR_SCOPES = ((1, 1), (1, 2), (2, 1))


def universes(m, n):
    """An m-atom frame and an n-situation space."""
    return (Frame(tuple(f"x{k + 1}" for k in range(m))),
            SituationSpace(tuple(f"w{k + 1}" for k in range(n))))


def every_table(m, n):
    """Every set-valued map of an m-atom frame into an n-situation space."""
    frame, space = universes(m, n)
    for table in itertools.product(range(1 << n), repeat=1 << m):
        yield SetValuedMap(frame, space, table)


def every_partition(m, n):
    """Every basic assignment: each situation in the cell of one nonempty
    subset."""
    frame, space = universes(m, n)
    for focals in itertools.product(range(1, 1 << m), repeat=n):
        cells = [0] * (1 << m)
        for w, a in enumerate(focals):
            cells[a] |= 1 << w
        yield BasicAssignment(SetValuedMap(frame, space, cells))


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


def extract_disagreements(m, n):
    """(partitions, partitions j whose structure does not extract to j or
    to the oracle's cells)."""
    total = bad = 0
    for j in every_partition(m, n):
        s = structure_from_assignment(j)
        back = extract_assignment(s)
        total += 1
        bad += back != j or back.map.table != oracle_extract_table(s)
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


@pytest.mark.parametrize("m, n", TABLE_SCOPES)
def test_every_partition_extracts_back(m, n):
    total, bad = extract_disagreements(m, n)
    assert total == ((1 << m) - 1) ** n
    assert bad == 0


if __name__ == "__main__":
    failed = False
    for label, run in (("tables m=3 n=2", lambda: disagreements(table_cases(3, 2))),
                       ("pairs m=2 n=2", lambda: disagreements(pair_cases(2, 2))),
                       ("partitions m=3 n=2", lambda: extract_disagreements(3, 2))):
        total, bad = run()
        print(f"{label}: {total} objects, {bad} disagreements", flush=True)
        failed |= bad > 0
    sys.exit(1 if failed else 0)
