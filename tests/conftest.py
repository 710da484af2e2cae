import pytest

from omcp import linalg
from omcp.om import ExplicitOM
from omcp.signs import GroundSet

# Two matroids on {s1, t1}: one with both circuits balanced (a P-matroid),
# one with both circuits sign-reversing.
PM_CIRCUITS = ["++", "--"]
NON_PM_CIRCUITS = ["+-", "-+"]

# Two extensions of the P-matroid above by q: a uniform one and a
# degenerate one where q is a loop.
EXT_CIRCUITS = ["++0", "--0", "+0-", "-0+", "0++", "0--"]
EXT_DEGENERATE_CIRCUITS = ["++0", "--0", "00+", "00-"]


@pytest.fixture(scope="session")
def ground1():
    return GroundSet.complementary(1)


@pytest.fixture(scope="session")
def ground1q():
    return GroundSet.complementary(1, with_q=True)


@pytest.fixture(scope="session")
def pm(ground1):
    return ExplicitOM.from_encoded(ground1, PM_CIRCUITS)


@pytest.fixture(scope="session")
def non_pm(ground1):
    return ExplicitOM.from_encoded(ground1, NON_PM_CIRCUITS)


@pytest.fixture(scope="session")
def ext(ground1q):
    return ExplicitOM.from_encoded(ground1q, EXT_CIRCUITS)


@pytest.fixture(scope="session")
def ext_degenerate(ground1q):
    return ExplicitOM.from_encoded(ground1q, EXT_DEGENERATE_CIRCUITS)


@pytest.fixture
def invert_calls(monkeypatch):
    """Results of every linalg.invert call, True where the matrix was singular."""
    calls = []
    original = linalg.invert

    def counting(*args):
        result = original(*args)
        calls.append(result is None)
        return result

    monkeypatch.setattr(linalg, "invert", counting)
    return calls
