"""Dual-route oracles for linalg: the production ``rref`` (zero-skipping,
in place, sparsest pivot row) against the plain dense first-row
elimination it replaced, the rank core mod P against a per-cell
evaluation (in the same sparsest-first order, and in row order), and the
zero-skipping products and in-place sums against naive loops over every
cell, kept here as small-size references."""

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


def per_cell_rank_pass(rows, in_order=False):
    """Reference rank mod P: (kept indices in increasing order or None, mod-P
    cells updated).  Rows are visited by fewest nonzero cells, the lowest
    index on a tie (in their own order with ``in_order``, the rule the
    sparsest-first order replaced), and every nonzero cell of a visited row
    is evaluated on its own, its denominator included, also when it is the
    constant 1."""
    ncols = len(rows[0])

    def at_t(p):
        return sum(c * pow(la._T, e, la._P) for e, c in p.items()) % la._P

    order = range(len(rows)) if in_order else sorted(
        range(len(rows)),
        key=lambda i: sum(1 for x in rows[i] if not x.is_zero()))
    basis, keep, updates = {}, [], 0
    for i in order:
        v = {}
        for j, x in enumerate(rows[i]):
            if x.is_zero():
                continue
            den = at_t(x.den)
            if not den:
                return None, updates
            val = at_t(x.num) * pow(den, -1, la._P) % la._P
            if val:
                v[j] = val
        while v:
            c = min(v)
            b = basis.get(c)
            if b is None:
                inv = pow(v[c], -1, la._P)
                basis[c] = {j: y * inv % la._P for j, y in v.items()}
                keep.append(i)
                break
            updates += len(b)
            f = v[c]
            for j, y in b.items():
                z = (v.get(j, 0) - f * y) % la._P
                if z:
                    v[j] = z
                else:
                    v.pop(j, None)
        if len(keep) == ncols:
            break
    return sorted(keep), updates


def first_candidate(mat, r, c):
    """The pivot rule ``_pivot_row`` replaced: the first row at or below r
    with a nonzero in column c."""
    return next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()),
                None)


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


def _assert_matches_reference(mat, rnd):
    ech, piv = la.rref(mat)
    ref_ech, ref_piv = dense_rref(mat)
    assert piv == ref_piv and la.mat_eq(ech, ref_ech)
    assert _same(_production(la.nullspace, mat),
                 _reference(la.nullspace, mat))
    x = [rnd.choice(_POOL) for _ in range(len(mat[0]))]
    for b in (la.mat_vec(mat, x), [rnd.choice(_POOL) for _ in mat]):
        assert _same(_production(la.solve, mat, b),
                     _reference(la.solve, mat, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.integers(0, 2 ** 32))
def test_rref_matches_dense_reference(nrows, ncols, seed):
    rnd = random.Random(seed)
    mat = _sparse_matrix(rnd, nrows, ncols)
    before = [list(r) for r in mat]
    _assert_matches_reference(mat, rnd)
    assert mat == before  # the input is not touched


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
    assert la.nonsingular(mat) == (not isinstance(got, type))
    if not isinstance(got, type):
        assert la.mat_eq(la.mat_mul(mat, got), la.identity(n, L0))


def test_rref_of_zero_matrix_and_empty_rows():
    zero = QScalar.zero(L0)
    assert la.rref([[zero] * 3] * 2) == ([], [])
    assert la.rref([[], []]) == ([], [])
    assert la.rref([]) == ([], [])
    with pytest.raises(ArithmeticError):
        la.inverse([[zero]])


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(2, 8), st.integers(0, 2 ** 32))
def test_sparsest_pivot_row_matches_dense_reference(nrows, ncols, seed):
    """Column 0 has a dense first candidate and two sparser ones later
    that tie: the pivot is the lower of the two, and every answer is the
    first-row elimination's."""
    rnd = random.Random(seed)
    zero = QScalar.zero(L0)
    mat = _sparse_matrix(rnd, nrows, ncols)
    a, b = sorted(rnd.sample(range(1, nrows), 2))
    for row in mat:
        row[0] = zero
    mat[0] = [rnd.choice(_POOL) for _ in range(ncols)]
    k = rnd.randrange(ncols - 1)  # nonzeros of a and b besides column 0
    for i in (a, b):
        cols = {0, *rnd.sample(range(1, ncols), k)}
        mat[i] = [rnd.choice(_POOL) if j in cols else zero
                  for j in range(ncols)]
    assert first_candidate(mat, 0, 0) == 0
    assert la._pivot_row(mat, 0, 0) == a
    _assert_matches_reference(mat, rnd)


# -- tall matrices, and cells with a pole or a zero at the point mod P ------

def _tall_planted(rnd, ncols, nullity, extra):
    """A tall matrix of rank ncols - nullity: rows [I | R] with random sparse
    R, columns shuffled, plus `extra` combinations of two of them, every row
    in shuffled order."""
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    k = ncols - nullity
    gens = [[one if j == i else zero for j in range(k)]
            + [rnd.choice(_POOL) if rnd.random() < 0.4 else zero
               for _ in range(nullity)] for i in range(k)]
    perm = list(range(ncols))
    rnd.shuffle(perm)
    gens = [[row[p] for p in perm] for row in gens]
    rows = list(gens)
    for _ in range(extra):
        a, b = rnd.sample(range(k), 2) if k > 1 else (0, 0)
        x, y = rnd.choice(_POOL), rnd.choice(_POOL)
        rows.append([x * u + y * v for u, v in zip(gens[a], gens[b])])
    rnd.shuffle(rows)
    return rows


def _count_eliminations(monkeypatch):
    """Row counts of the exact eliminations that run from now on."""
    calls = []
    real = la.rref
    monkeypatch.setattr(la, "rref",
                        lambda rows: calls.append(len(rows)) or real(rows))
    return calls


@pytest.mark.parametrize("nullity", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_tall_planted_rank_matches_dense_reference(nullity, seed):
    rnd = random.Random(100 * nullity + seed)
    ncols = 3 + seed
    mat = _tall_planted(rnd, ncols, nullity, extra=ncols + 2)
    ech, piv = la.rref(mat)
    assert len(piv) == ncols - nullity
    assert len(la.nullspace(mat)) == nullity
    _assert_matches_reference(mat, rnd)


def test_vanishing_denominator_skips_the_pass():
    """A cell with a pole at the point mod P is an exact scalar like any
    other."""
    rnd = random.Random(7)
    pole = QScalar({0: 1}, {1: 1, 0: -la._T}, L0)  # 1/(q^(1/2) - T)
    mat = _tall_planted(rnd, 3, 1, extra=3)
    mat[2] = [pole] + mat[2][1:]
    _assert_matches_reference(mat, rnd)


def test_rank_drop_at_the_point_falls_back():
    """A row that vanishes at the point mod P still counts exactly."""
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    root = QScalar({1: 1, 0: -la._T}, {0: 1}, L0)  # q^(1/2) - T
    two = QScalar.integer(2, L0)
    mat = [[root, zero], [zero, one], [zero, two]]
    assert la.rref(mat) == (la.identity(2, L0), [0, 1])
    _assert_matches_reference(mat, random.Random(8))


def test_nonsingular_falls_back_to_the_exact_rank(monkeypatch):
    """A square matrix whose rank drops at the point, or with a pole
    there, is decided like any other: by one exact elimination."""
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    root = QScalar({1: 1, 0: -la._T}, {0: 1}, L0)  # q^(1/2) - T
    pole = root.inverse()
    calls = _count_eliminations(monkeypatch)
    assert la.nonsingular([[root, zero], [zero, one]])
    assert la.nonsingular([[pole, zero], [zero, one]])
    assert not la.nonsingular([[root, one], [root, one]])
    assert la.nonsingular([[one, zero], [one, one]])
    assert calls == [2, 2, 2, 2]


def test_tall_inconsistent_solve():
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    q = QScalar.parse("q", L0)
    a = [[one, zero], [zero, q], [one, q], [q, one]]
    assert la.solve(a, [one, one, one, one]) is None
    assert _reference(la.solve, a, [one, one, one, one]) is None
    b = la.mat_vec(a, [q, one])
    assert la.solve(a, b) == [q, one]


def test_tall_zero_and_zero_column_matrices():
    zero = QScalar.zero(L0)
    assert la.rref([[], [], []]) == ([], [])
    assert la.rref([[zero] * 2] * 5) == ([], [])
    assert la.nullspace([[zero] * 2] * 5) == \
        [[QScalar.one(L0), zero], [zero, QScalar.one(L0)]]
    # rows with no columns: a map from the zero space has an empty kernel
    assert la.nullspace([[], []]) == []
    assert la.nullspace([[]]) == []


@pytest.fixture(scope="module")
def center_blocks(a2, dense_center):
    """The 28 matrices the dense-block A2 center solve at height 2 passes to
    ``nullspace`` (every connected block of its candidates)."""
    from qflag.enveloping import UAlgebra
    blocks = []
    null = la.nullspace
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "nullspace", lambda a: blocks.append(a) or null(a))
        dense_center(UAlgebra(a2), 2)
    assert len(blocks) == 28
    return blocks


def test_largest_full_rank_center_block_reduces_to_the_identity(
        a2, center_blocks):
    blocks = center_blocks
    block = max(blocks, key=lambda b: (len(b), len(b[0])))
    assert (len(block), len(block[0])) == (364, 61)
    ech, piv = la.rref(block)
    assert piv == list(range(61)) and la.mat_eq(ech, la.identity(61, a2.l0))
    assert la.nullspace(block) == []


def test_corank_one_center_blocks_match_dense_reference(center_blocks):
    blocks = center_blocks
    corank_one = [b for b in blocks
                  if len(la.rref(b)[1]) == len(b[0]) - 1]
    assert sorted((len(b), len(b[0])) for b in corank_one) == \
        [(336, 57), (340, 58), (340, 58)]
    for block in corank_one:
        want = dense_rref(block)
        assert la.rref(block) == want


def _count_products(monkeypatch):
    """A one-cell list counting QScalar products from now on."""
    count = [0]
    real = QScalar.__mul__

    def mul(x, y):
        count[0] += 1
        return real(x, y)
    monkeypatch.setattr(QScalar, "__mul__", mul)
    return count


def test_sparsest_pivot_multiplies_less_on_the_center_solve(center_blocks):
    """On the 28 dense A2 center blocks the sparsest-row rule gives the
    first-row rule's answers with fewer products (3,990 against 58,411
    when this test was written)."""
    def run(pivot_row):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(la, "_pivot_row", pivot_row)
            count = _count_products(mp)
            out = [la.rref(rows) for rows in center_blocks]
        return out, count[0]
    sparsest, sparsest_products = run(la._pivot_row)
    first, first_products = run(first_candidate)
    assert sparsest == first
    assert sparsest_products < first_products


def _rank_cases(center_blocks):
    rnd = random.Random(11)
    cases = [_tall_planted(rnd, 3 + seed, nullity, extra=5 + seed)
             for nullity in range(3) for seed in range(4)]
    pole = QScalar({0: 1}, {1: 1, 0: -la._T}, L0)  # 1/(q^(1/2) - T)
    with_pole = _tall_planted(rnd, 3, 1, extra=3)
    with_pole[2] = [pole] + with_pole[2][1:]
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    root = QScalar({1: 1, 0: -la._T}, {0: 1}, L0)  # q^(1/2) - T
    rank_drop = [[root, zero], [zero, one], [zero, QScalar.integer(2, L0)]]
    return cases + [with_pole, rank_drop] + center_blocks


def _evaluated_rows(mat):
    """The rows of mat as sparse {column: value mod P} vectors, each cell
    evaluated on its own; None at a pole."""
    rows = []
    for row in mat:
        v = {}
        for j, x in enumerate(row):
            if x.is_zero():
                continue
            val = la._mod_p(x)
            if val is None:
                return None
            if val:
                v[j] = val
        rows.append(v)
    return rows


def test_rank_core_matches_per_cell_evaluation(center_blocks):
    """The rank core on sparse vectors mod P, fed the evaluated rows
    sparsest first, keeps the rows the per-cell pass keeps; fed them in
    order it keeps as many, and fed the columns of a matrix it finds them
    independent exactly when the rows have full column rank."""
    for mat in _rank_cases(center_blocks):
        rows = _evaluated_rows(mat)
        if rows is None:  # the pole case
            continue
        ncols = len(mat[0])
        want, _updates = per_cell_rank_pass(mat)
        order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
        keep = la._independent_mod_p(((i, dict(rows[i])) for i in order),
                                     ncols)
        assert sorted(keep) == want
        in_order = la._independent_mod_p(
            ((i, dict(v)) for i, v in enumerate(rows)), ncols)
        assert len(in_order) == len(want)
        cols = {}
        for i, v in enumerate(rows):
            for j, x in v.items():
                cols.setdefault(j, {})[i] = x
        independent = la._independent_mod_p(
            ((j, cols.get(j, {})) for j in range(ncols)), ncols)
        assert (len(independent) == ncols) == (len(want) == ncols)


def test_sparsest_first_updates_fewer_cells_on_the_center_blocks(
        center_blocks):
    """On the 28 A2 center blocks, visiting the sparsest rows first updates
    far fewer cells mod P than visiting them in order (7,963 against 59,560
    when this test was written: 6,205 against 15,960 row subtractions)."""
    blocks = center_blocks
    sparsest = sum(per_cell_rank_pass(b)[1] for b in blocks)
    in_order = sum(per_cell_rank_pass(b, in_order=True)[1] for b in blocks)
    assert sparsest < in_order


def test_a_pole_in_a_visited_row_gives_none():
    """A pole at the point mod P, in the sparsest row or in a row after
    two that already span every column, leaves rref exact."""
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    q = QScalar.parse("q", L0)
    pole = QScalar({0: 1}, {1: 1, 0: -la._T}, L0)  # 1/(q^(1/2) - T)
    visited = [[one, q], [q, one], [pole, zero]]
    unvisited = [[one, zero], [zero, one], [pole, one]]
    for mat in (visited, unvisited):
        assert la.rref(mat) == (la.identity(2, L0), [0, 1]) == \
            dense_rref(mat)


# -- assembly kernels against naive loops over every cell ---------------------

def _naive_mul(a, b, ncols):
    zero = QScalar.zero(L0)
    return [[sum((row[t] * b[t][j] for t in range(len(b))), zero)
             for j in range(ncols)] for row in a]


def _naive_kron(a, b, acols, bcols):
    zero = QScalar.zero(L0)
    out = [[zero] * (acols * bcols) for _ in range(len(a) * len(b))]
    for i in range(len(a)):
        for j in range(acols):
            for k in range(len(b)):
                for l in range(bcols):
                    out[i * len(b) + k][j * bcols + l] = a[i][j] * b[k][l]
    return out


def _naive_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _holey(rnd, nrows, ncols):
    """A sparse random matrix with some rows and columns entirely zero."""
    zero = QScalar.zero(L0)
    mat = [[rnd.choice(_POOL) if rnd.random() < 0.4 else zero
            for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if rnd.random() < 0.25:
            mat[i] = [zero] * ncols
    for j in range(ncols):
        if rnd.random() < 0.25:
            for row in mat:
                row[j] = zero
    return mat


_DIMS = st.sampled_from([0, 1, 1, 2, 3, 5])


@settings(max_examples=80, deadline=None)
@given(_DIMS, _DIMS, _DIMS, st.integers(0, 2 ** 32))
def test_mat_mul_matches_naive_loops(n, k, m, seed):
    rnd = random.Random(seed)
    a, b = _holey(rnd, n, k), _holey(rnd, k, m)
    before = ([list(r) for r in a], [list(r) for r in b])
    # with no inner dimension b has no rows, so the product has no columns
    got = la.mat_mul(a, b)
    assert got == _naive_mul(a, b, m if k else 0)
    assert (a, b) == before


@settings(max_examples=80, deadline=None)
@given(_DIMS, _DIMS, _DIMS, _DIMS, st.integers(0, 2 ** 32))
def test_kron_and_add_kron_match_naive_loops(na, ma, nb, mb, seed):
    rnd = random.Random(seed)
    a, b = _holey(rnd, na, ma), _holey(rnd, nb, mb)
    expected = _naive_kron(a, b, ma, mb)
    assert la.kron(a, b) == expected
    acc = _holey(rnd, na * nb, ma * mb)
    want = _naive_add(acc, expected)
    before = ([list(r) for r in a], [list(r) for r in b])
    la.add_kron(acc, a, b)
    assert acc == want
    assert (a, b) == before


def test_one_by_one_and_cancelling_cells():
    q = QScalar.parse("q^(1/2)", L0)
    r = QScalar.parse("(1 + q^(1/2))/(1 - q)", L0)
    assert la.mat_mul([[q]], [[r]]) == [[q * r]]
    assert la.kron([[q]], [[r]]) == [[q * r]]
    # a cell whose sum cancels to zero is zero, not skipped
    acc = [[-(q * r)]]
    la.add_kron(acc, [[q]], [[r]])
    assert acc[0][0].is_zero()


def test_is_identity():
    zero, one = QScalar.zero(L0), QScalar.one(L0)
    assert la.is_identity(la.identity(3, L0))
    assert la.is_identity([])
    assert not la.is_identity([[one, zero]])
    assert not la.is_identity([[one, zero], [one, one]])
    assert not la.is_identity([[QScalar.parse("q", L0)]])


@pytest.mark.parametrize("n", [0, 1, 4])
def test_diagonal_is_a_scaled_identity(n):
    for c in _POOL:
        assert la.diagonal([c] * n, L0) == \
            la.mat_scale(la.identity(n, L0), c)
    # distinct entries land on the diagonal in order, zeros elsewhere
    entries = _POOL[:n]
    mat = la.diagonal(entries, L0)
    assert len(mat) == n and all(len(row) == n for row in mat)
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            assert x == entries[i] if i == j else x.is_zero()
    assert la.diagonal([], L0) == [] == la.identity(0, L0)
