import os
from pathlib import Path

import pytest

import qflag
from qflag import linalg
from qflag.cartan import preset
from qflag.center import (CenterElement, _candidate_monomials,
                          _shape_commutator, _solver_generators)
from qflag.coordring import CoordRing
from qflag.enveloping import UAlgebra, UElement
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


def dense_center_solve(algebra, max_height):
    """Oracle for ``center._solve``: the solve that forms every exact
    product q^{-(mu, tw)}·c and a dense block for every connected
    component of the candidates, and passes each block to
    ``linalg.nullspace`` (28 blocks on A2 at height 2)."""
    datum = algebra.datum
    cands = _candidate_monomials(algebra, max_height)
    if not cands:
        return []
    shapes = sorted({(fw, ew) for (fw, _mu, ew) in cands})
    gens = _solver_generators(datum)
    shape_comms = {
        (shape, gi): _shape_commutator(algebra, shape, kind, i)
        for shape in shapes
        for gi, (kind, i) in enumerate(gens)
    }
    twists = {}
    rows_index = {}
    cols = []
    for (fw, mu, ew) in cands:
        col = {}
        for gi in range(len(gens)):
            for (fw2, nu2, ew2, c, tw) in shape_comms[((fw, ew), gi)]:
                if tw is not None:
                    t = twists.get((mu, tw))
                    if t is None:
                        t = twists[(mu, tw)] = datum.q_pair(
                            datum.weight_neg(mu), tw)
                    c = c * t
                rk = (gi, (fw2, tuple(a + b for a, b in zip(nu2, mu)), ew2))
                idx = rows_index.setdefault(rk, len(rows_index))
                old = col.get(idx)
                col[idx] = c if old is None else old + c
        cols.append(col)
    parent = list(range(len(cands)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    row_owner = {}
    for j, col in enumerate(cols):
        for ridx in col:
            if ridx in row_owner:
                ra, rb = find(row_owner[ridx]), find(j)
                if ra != rb:
                    parent[rb] = ra
            else:
                row_owner[ridx] = j
    groups = {}
    for j in range(len(cands)):
        groups.setdefault(find(j), []).append(j)
    out = []
    for members in groups.values():
        row_ids = sorted({ridx for j in members for ridx in cols[j]})
        rpos = {r: i for i, r in enumerate(row_ids)}
        if not row_ids:
            for j in members:
                out.append(CenterElement(algebra, UElement(
                    algebra, {cands[j]: datum.one()})))
            continue
        mat = linalg.zeros(len(row_ids), len(members), datum.l0)
        for jj, j in enumerate(members):
            for ridx, c in cols[j].items():
                mat[rpos[ridx]][jj] = c
        for vec in linalg.nullspace(mat):
            terms = {cands[members[jj]]: c for jj, c in enumerate(vec)
                     if not c.is_zero()}
            out.append(CenterElement(algebra, UElement(algebra, terms)))
    return out


@pytest.fixture(scope="session")
def dense_center():
    """The dense-block center solve (``dense_center_solve``)."""
    return dense_center_solve
