import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from clusterknit import reference


@pytest.fixture(scope="session")
def kronecker3():
    return reference.category("kronecker3")


@pytest.fixture(scope="session")
def kronecker3_ordering():
    return reference.WORKED_ORDERING


@pytest.fixture(scope="session")
def fan_a3():
    return reference.category("fan_a3")


@pytest.fixture(scope="session")
def triangle3():
    return reference.category("triangle3")


@pytest.fixture(scope="session")
def linear_a4():
    return reference.category("linear_a4")


@pytest.fixture(scope="session")
def five_vertex():
    return reference.category("five_vertex")
