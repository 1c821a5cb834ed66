import os
from pathlib import Path

import pytest

import qflag
from qflag.cartan import preset
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra
from qflag.rmatrix import DrinfeldPairing


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_qflag():
    """Child processes (`python -m qflag ...`) import the qflag under test,
    also when only pytest's `pythonpath` setting put it on the path."""
    src = str(Path(qflag.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def a1():
    return preset("A1")


@pytest.fixture(scope="session")
def a2():
    return preset("A2")


@pytest.fixture(scope="session")
def g2():
    return preset("G2")


@pytest.fixture(scope="session")
def alg1(a1):
    return UAlgebra(a1)


@pytest.fixture(scope="session")
def alg2(a2):
    return UAlgebra(a2)


@pytest.fixture(scope="session")
def ring1(alg1):
    return CoordRing(alg1)


@pytest.fixture(scope="session")
def ring2(alg2):
    return CoordRing(alg2)


@pytest.fixture(scope="session")
def pairing1(alg1):
    return DrinfeldPairing(alg1)


@pytest.fixture(scope="session")
def pairing2(alg2):
    return DrinfeldPairing(alg2)
