"""Dual-route oracle for elimination: the production ``rref`` (zero-skipping,
in place) against the plain dense elimination it replaced, kept here as a
small-size reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflag import linalg as la
from qflag.scalars import QScalar

L0 = 2


def dense_rref(rows):
    """Reference: every row update touches every cell, zero or not."""
    if not rows:
        return [], []
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


_POOL = ["1", "-1", "2", "q", "q^(1/2)", "q^-1 - 3", "1 + q", "q - q^-1",
         "(1 + q^(1/2))/(1 - q)", "q^2/(1 + q + q^2)", "-3/(q^(3/2) + 2)"]
_POOL = [QScalar.parse(s, L0) for s in _POOL]


def _sparse_matrix(rnd, nrows, ncols, density=0.3):
    zero = QScalar.zero(L0)
    mat = [[rnd.choice(_POOL) if rnd.random() < density else zero
            for _ in range(ncols)] for _ in range(nrows)]
    # dependent rows give nontrivial kernels and skipped columns
    for i in range(2, nrows):
        if rnd.random() < 0.3:
            a, b = rnd.sample(range(i), 2)
            x, y = rnd.choice(_POOL), rnd.choice(_POOL)
            mat[i] = [x * u + y * v for u, v in zip(mat[a], mat[b])]
    return mat


def _reference(fn, *args):
    """fn routed through the dense reference elimination."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "rref", dense_rref)
        try:
            return fn(*args)
        except ArithmeticError as exc:
            return type(exc)


def _production(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def _same(x, y):
    if isinstance(x, type) or isinstance(y, type):
        return x is y
    return x == y


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 2 ** 32))
def test_rref_matches_dense_reference(nrows, ncols, seed):
    rnd = random.Random(seed)
    mat = _sparse_matrix(rnd, nrows, ncols)
    before = [list(r) for r in mat]
    ech, piv = la.rref(mat)
    ref_ech, ref_piv = dense_rref(mat)
    assert piv == ref_piv
    assert la.mat_eq(ech, ref_ech)
    assert mat == before  # the input is not touched
    assert _same(_production(la.nullspace, mat),
                 _reference(la.nullspace, mat))
    x = [rnd.choice(_POOL) for _ in range(ncols)]
    for b in (la.mat_vec(mat, x), [rnd.choice(_POOL) for _ in range(nrows)]):
        assert _same(_production(la.solve, mat, b),
                     _reference(la.solve, mat, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2 ** 32))
def test_inverse_matches_dense_reference(n, seed):
    rnd = random.Random(seed)
    mat = _sparse_matrix(rnd, n, n)
    for i in range(n):
        if mat[i][i].is_zero() and rnd.random() < 0.8:
            mat[i][i] = rnd.choice(_POOL)
    got = _production(la.inverse, mat)
    assert _same(got, _reference(la.inverse, mat))
    if not isinstance(got, type):
        assert la.mat_eq(la.mat_mul(mat, got), la.identity(n, L0))


def test_rref_of_zero_matrix_and_empty_rows():
    zero = QScalar.zero(L0)
    assert la.rref([[zero] * 3] * 2) == ([], [])
    assert la.rref([[], []]) == ([], [])
    assert la.rref([]) == ([], [])
    with pytest.raises(ArithmeticError):
        la.inverse([[zero]])
