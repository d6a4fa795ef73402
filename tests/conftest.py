import pytest
from hypothesis import HealthCheck, settings

from ambicalc import (
    AmbiguityMap,
    BasicAssignment,
    Frame,
    GenConfig,
    PointMap,
    ProbabilityAssignment,
    SetValuedMap,
    SituationSpace,
    fuzz,
    incidence_from_pointmap,
    structure_from_assignment,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the acceptance session: seed 42, 1000 trials, frames up to 5 atoms and
# spaces up to 10 situations
SESSION_CFG = GenConfig(m=5, n=10, seed=42, trials=1000, seeded_selectors=5)


@pytest.fixture(scope="session")
def session_report():
    return fuzz(SESSION_CFG)


@pytest.fixture
def fix1():
    """Two atoms, three situations, one situation per nonempty subset."""
    frame = Frame(("x", "y"))
    space = SituationSpace(("w1", "w2", "w3"))
    j = BasicAssignment(SetValuedMap(frame, space, (0, 0b001, 0b010, 0b100)))
    return {
        "frame": frame,
        "space": space,
        "j": j,
        "s": structure_from_assignment(j),
        "p": ProbabilityAssignment.from_integers(space, [1, 1, 1]),
    }


@pytest.fixture
def fix2():
    """Three atoms, two situations: a valid ambiguity map with no compatible
    incidence map among the given one."""
    frame = Frame(("x", "y", "z"))
    space = SituationSpace(("w1", "w2"))
    amb = AmbiguityMap(SetValuedMap(frame, space, (0, 2, 2, 0, 0, 2, 2, 0)))
    inc = incidence_from_pointmap(PointMap((0, 2)), frame, space)
    return {"frame": frame, "space": space, "amb": amb, "inc": inc}


@pytest.fixture
def fix3():
    """Vacuous assignment: all situations sit in the cell of the full frame."""
    frame = Frame(("x", "y"))
    space = SituationSpace(("w1", "w2", "w3"))
    j = BasicAssignment(SetValuedMap(frame, space, (0, 0, 0, 0b111)))
    return {"frame": frame, "space": space, "j": j, "s": structure_from_assignment(j)}
