"""Exact dense linear algebra over Q(q^(1/l0)).

Matrices are lists of lists of QScalar.  Every answer comes from exact
fraction arithmetic.  Elimination pivots on the sparsest candidate row,
which changes its work but not its answer (the reduced echelon form is
unique), and skips zero cells, which are most of them in the sparse
systems qflag solves.  So does assembly: products read each row of their
right factor as its list of nonzero cells, and ``add_kron`` adds into a
matrix in place.  The one elimination is ``rref``; the inverse, the
nullspace, the rank and solving go through it.  The rank
core mod P (``_independent_mod_p``, on sparse vectors with q^(1/l0)
evaluated at a fixed point of a prime field) serves the center solve,
which finds with it which of its blocks have a kernel and on which rows
to form their exact cells.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .scalars import QScalar

Matrix = List[List[QScalar]]
Vector = List[QScalar]
Rows = List[Dict[int, QScalar]]   # a matrix as its rows of nonzero cells


def zeros(rows: int, cols: int, l0: int) -> Matrix:
    z = QScalar.zero(l0)
    return [[z] * cols for _ in range(rows)]


def diagonal(entries: Sequence[QScalar], l0: int) -> Matrix:
    """The square matrix with ``entries`` on its diagonal."""
    out = zeros(len(entries), len(entries), l0)
    for i, c in enumerate(entries):
        out[i][i] = c
    return out


def identity(n: int, l0: int) -> Matrix:
    return diagonal([QScalar.one(l0)] * n, l0)


def from_rows(rows: Rows, cols: int, l0: int) -> Matrix:
    """The dense matrix with the given rows of nonzero cells."""
    out = zeros(len(rows), cols, l0)
    for orow, row in zip(out, rows):
        for j, x in row.items():
            orow[j] = x
    return out


def _nonzero_columns(row: Sequence[QScalar]) -> List[int]:
    return [j for j, x in enumerate(row) if x.num]  # no method call


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a·b; each row of b that a reads is scanned for its nonzero columns
    once, and the products loop over those columns only."""
    if not a:
        return []
    n, k = len(a), len(a[0])
    if k != len(b):
        raise ValueError("shape mismatch")
    m = len(b[0]) if b else 0
    if not m:
        return [[] for _ in range(n)]
    out = zeros(n, m, b[0][0].l0)
    nz: List[Optional[List[int]]] = [None] * k
    for ai, oi in zip(a, out):
        for t, c in enumerate(ai):
            if not c.num:
                continue
            cols = nz[t]
            if cols is None:
                cols = nz[t] = _nonzero_columns(b[t])
            bt = b[t]
            for j in cols:
                oi[j] = oi[j] + c * bt[j]
    return out


def running_products(factors: Iterable[Matrix],
                     left: bool = False) -> Iterator[Matrix]:
    """New matrices f0, f0·f1, f0·f1·f2, ... (f0, f1·f0, ... when later
    factors multiply on the left): no identity factor, ever."""
    out = None
    for f in factors:
        out = [list(row) for row in f] if out is None else \
            mat_mul(f, out) if left else mat_mul(out, f)
        yield out


def ordered_product(factors: Iterable[Matrix], n: int, l0: int,
                    left: bool = False) -> Matrix:
    """The last running product; the n x n identity for no factors."""
    out = None
    for out in running_products(factors, left):
        pass
    return identity(n, l0) if out is None else out


def set_block(mat: Matrix, row: int, col: int, block: Matrix) -> None:
    """Write block into mat with its top-left cell at (row, col)."""
    for r, brow in enumerate(block, row):
        mat[r][col:col + len(brow)] = brow


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [row_dot(row, v) for row in a]


def row_dot(row: Sequence[QScalar], v: Sequence[QScalar]) -> QScalar:
    out = None
    for c, x in zip(row, v):
        if not c.num or not x.num:
            continue
        term = c * x
        out = term if out is None else out + term
    if out is None:
        return QScalar.zero(row[0].l0 if row else v[0].l0)
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: QScalar) -> Matrix:
    return [[c * x for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with index convention (i,k),(j,l) -> i*nb+k."""
    if not a or not b:
        return []
    rows, cols = len(a) * len(b), len(a[0]) * len(b[0])
    if not cols:
        return [[] for _ in range(rows)]
    out = zeros(rows, cols, a[0][0].l0)
    add_kron(out, a, b)
    return out


def add_kron(acc: Matrix, a: Matrix, b: Matrix) -> None:
    """acc += kron(a, b) in place, on the nonzero cells of the product: the
    nonzero columns of b's rows are listed once, at a's first nonzero."""
    if not a or not b:
        return
    nb, mb = len(b), len(b[0])
    nz: Optional[List[List[int]]] = None
    for i, ai in enumerate(a):
        for j, c in enumerate(ai):
            if not c.num:
                continue
            if nz is None:
                nz = [_nonzero_columns(row) for row in b]
            for orow, brow, cols in zip(acc[i * nb:(i + 1) * nb], b, nz):
                for l in cols:
                    col = j * mb + l
                    orow[col] = orow[col] + c * brow[l]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if x is not y and x != y:
                return False
    return True


def is_zero_matrix(a: Matrix) -> bool:
    return not any(x.num for row in a for x in row)


def is_identity(a: Matrix) -> bool:
    return all(len(row) == len(a) and
               all(x.is_one() if i == j else x.is_zero()
                   for j, x in enumerate(row))
               for i, row in enumerate(a))


def first_mismatch(a: Matrix, b: Matrix) -> Optional[Tuple[int, int, QScalar, QScalar]]:
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return i, j, x, y
    return None


def rref(rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form (copy); returns (echelon, pivot columns).

    Exact Gauss-Jordan elimination of every row.  The pivot row is the
    sparsest candidate (``_pivot_row``); it is scaled once, and every other
    row is updated in place on the pivot row's nonzero columns only: a zero
    cell costs nothing."""
    if not rows or not rows[0]:
        return [], []
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = _pivot_row(mat, r, c)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        # left of c the pivot row is zero: earlier columns are pivots
        # cleared by elimination or have no nonzero entry at row r or below
        nz = [j for j in range(c + 1, ncols) if prow[j].num]
        inv = prow[c].inverse()
        for j in nz:
            prow[j] = prow[j] * inv
        prow[c] = QScalar.one(inv.l0)
        zero = QScalar.zero(inv.l0)
        for i, row in enumerate(mat):
            f = row[c]
            if i == r or not f.num:
                continue
            f = -f
            for j in nz:
                row[j] = row[j] + f * prow[j]
            row[c] = zero
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _pivot_row(mat: Matrix, r: int, c: int) -> Optional[int]:
    """The row at or below r with a nonzero in column c that has the fewest
    nonzero cells, the lowest index on a tie; None if there is none.

    A sparse pivot row updates few cells of every other row (Markowitz's
    rule for a fixed column).  Rows at or below r are zero left of c, so
    counting from c counts all their nonzero cells.  Which candidate is
    taken changes only the work: the reduced echelon form of a row space
    is unique, so the pivots and the echelon rows are the same."""
    best, fewest = None, 0
    for i in range(r, len(mat)):
        row = mat[i]
        if not row[c].num:
            continue
        n = sum(1 for x in row[c:] if x.num)
        if best is None or n < fewest:
            best, fewest = i, n
    return best


# The center solve evaluates q^(1/l0) at the fixed point _T of the field of
# _P elements.  Both are constants, so every run makes the same choices; a
# point where the rank mod P is unlucky only costs the elimination of every
# row of a block.
_P = (1 << 61) - 1
_T = 1234567890123456789


def _independent_mod_p(vectors: Iterable[Tuple[int, Dict[int, int]]],
                       full: int) -> List[int]:
    """The rank core mod _P: the labels, in visiting order, of the sparse
    vectors ({index: nonzero value mod _P}, reduced in place) that are
    independent of the vectors before them, stopping once ``full`` are
    kept (the dimension they live in, or the number of vectors when only
    their independence is asked).  Each vector is reduced by the basis
    kept so far, held by leading index with leading value 1, and joins it
    when something is left."""
    basis: Dict[int, Dict[int, int]] = {}
    keep: List[int] = []
    for label, v in vectors:
        while v:
            c = min(v)
            b = basis.get(c)
            if b is None:
                inv = pow(v[c], -1, _P)
                basis[c] = {j: y * inv % _P for j, y in v.items()}
                keep.append(label)
                break
            f = v[c]
            for j, y in b.items():
                z = (v.get(j, 0) - f * y) % _P
                if z:
                    v[j] = z
                else:
                    v.pop(j, None)
        if len(keep) == full:
            break
    return keep


def _mod_p(x: QScalar) -> Optional[int]:
    """x at q^(1/l0) = _T mod _P; None if its denominator vanishes there."""
    num = _poly_mod_p(x.num)
    if x.is_polynomial():
        return num
    den = _poly_mod_p(x.den)
    return num * pow(den, -1, _P) % _P if den else None


def _q_l0_mod_p(n: int) -> int:
    """q^(n/l0) at q^(1/l0) = _T mod _P, for any integer n."""
    return pow(_T, n, _P)


def _poly_mod_p(p: Dict[int, int]) -> int:
    return sum(c * _q_l0_mod_p(e) for e, c in p.items()) % _P


def rank(a: Matrix) -> int:
    return len(rref(a)[0])


def nonsingular(a: Matrix) -> bool:
    """Whether the square matrix a is invertible: its exact rank is full."""
    return rank(a) == len(a)


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if all(x.is_zero() for x in b) else None
    n, m = len(a), len(a[0])
    l0 = b[0].l0 if b else a[0][0].l0
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    ech, pivots = rref(aug)
    if m in pivots:
        return None
    x = [QScalar.zero(l0) for _ in range(m)]
    for row, pc in zip(ech, pivots):
        x[pc] = row[m]
    return x


def nullspace(a: Matrix) -> List[Vector]:
    """Basis of the right kernel of a."""
    if not a:
        return []
    m = len(a[0])
    if m == 0:
        return []
    l0 = a[0][0].l0
    ech, pivots = rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis: List[Vector] = []
    for fc in free:
        v = [QScalar.zero(l0) for _ in range(m)]
        v[fc] = QScalar.one(l0)
        for row, pc in zip(ech, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if n == 0:
        return []
    ident = identity(n, a[0][0].l0)
    aug = [list(row) + ident_row for row, ident_row in zip(a, ident)]
    ech, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ArithmeticError("matrix not invertible")
    return [row[n:] for row in ech]
