import os
import pathlib

import pytest

from nijleib import adjoint_representation, catalog_get
from nijleib.linalg import Matrix, frac

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# `python -m nijleib.cli` subprocesses import the package from this checkout,
# like the tests themselves (pytest's `pythonpath` setting covers only this
# interpreter)
SRC = str(pathlib.Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def loday2():
    return catalog_get("loday2")


@pytest.fixture(scope="session")
def classified_op():
    # a = 2, b = 1, c = 0, d = 1: satisfies a - d = b with c = 0
    return Matrix([[frac(2), frac(1)], [frac(0), frac(1)]])


@pytest.fixture(scope="session")
def loday2_adjoint(loday2, classified_op):
    return adjoint_representation(loday2, classified_op)
