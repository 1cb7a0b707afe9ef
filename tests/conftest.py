import pytest

from lpcckit.exact import Vec
from lpcckit.statesets import PartySpec, StateSet, build_named_set


@pytest.fixture(scope="session")
def s1():
    return build_named_set("S1")


@pytest.fixture(scope="session")
def s2():
    return build_named_set("S2")


@pytest.fixture(scope="session")
def domino():
    return build_named_set("Domino")


@pytest.fixture(scope="session")
def union_s():
    return build_named_set("UnionS")


@pytest.fixture(scope="session")
def irrational_2x3():
    """{|12>, |01>+|02>-|10>, 3|00>+4|01>-2|02>+2|10>+3|11>} in 2x3: B's
    orthogonality-preserving rays (1, +-1/sqrt2, 0) lie outside Q(i)."""
    return StateSet(PartySpec((2, 3)), [
        ("p0", Vec([0, 0, 0, 0, 0, 1])),
        ("p1", Vec([0, 1, 1, -1, 0, 0])),
        ("p2", Vec([3, 4, -2, 2, 3, 0]))], provenance="irrational-2x3")
