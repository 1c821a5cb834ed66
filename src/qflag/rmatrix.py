"""The Drinfeld pairing, canonical elements, and R-operators.

The pairing is computed by structural recursion on the plus-side word via
the coproduct axiom (x1 x2, y) = (x2 (x) x1, Delta(y)); inverting its
degree tables gives the canonical elements behind R-inverse.  R-inverse
is built on the factor modules from walks of the letters of S(e_w) and
k_beta f_w, once per free word w, summed over the dual basis
D_a = sum_b C[a][b] y_b on nonzero cells: no product in U, and no step
shared with R.  R itself is
R = Theta o kappa^-1 on the module, with Theta the ordered product of
q-exponentials of root vectors E_beta (x) F_beta along a reduced word of
w0 (Kirillov-Reshetikhin 1990, Levendorskii-Soibelman 1991).  Every
R-operator is held as its rows of nonzero cells; the hexagon reads only
those rows, so it builds no carrier of the triple product.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

from . import linalg
from .cartan import RootSum, by_height
from .enveloping import UAlgebra, UElement, _content
from .errors import BorelError, QflagError, TruncationError
from .linalg import Matrix, Rows
from .memo import Memo
from .scalars import QScalar, exp_t_coefficient
from .weightmod import WeightModule, braid_on_module, tensor

class DrinfeldPairing:
    """Pairing tables between U^+ and U^- degree pieces."""

    def __init__(self, algebra: UAlgebra):
        self.algebra = algebra
        self.datum = algebra.datum
        self.memo = Memo()

    # -- word-level recursion ----------------------------------------------------

    def pair_words(self, eword: Tuple[int, ...],
                   fword: Tuple[int, ...]) -> QScalar:
        """(e_{i1}...e_{in}, f_{j1}...f_{jn}) via the coproduct recursion."""
        datum = self.datum
        if _content(eword, datum.rank) != _content(fword, datum.rank):
            return datum.zero()
        if not eword:
            return datum.one()
        return self.memo.get(("word", eword, fword),
                             lambda: self._pair_words(eword, fword))

    def _pair_words(self, eword: Tuple[int, ...],
                    fword: Tuple[int, ...]) -> QScalar:
        datum = self.datum
        i, rest = eword[0], eword[1:]
        out = datum.zero()
        base = (self.algebra.qi(i, -1) - self.algebra.qi(i)).inverse()
        for t, j in enumerate(fword):
            if j != i:
                continue
            pre = fword[:t]
            scal = datum.one()
            if pre:
                gamma = _content(pre, datum.rank)
                scal = datum.q_pair(datum.root_to_weight(gamma), datum.alpha(i))
            sub = self.pair_words(rest, pre + fword[t + 1:])
            out = out + scal * base * sub
        return out

    def pair(self, x: UElement, y: UElement) -> QScalar:
        """The full pairing U^{>=0} x U^{<=0} -> F."""
        datum = self.datum
        out = datum.zero()
        for (fx, lamx, ex), cx in x.terms.items():
            if fx:
                raise BorelError("first argument must lie in U^{>=0}")
            for (fy, lamy, ey), cy in y.terms.items():
                if ey:
                    raise BorelError("second argument must lie in U^{<=0}")
                # (k_lam x', y' k_mu) = q^{-(lam, mu - deg y')} (x', y')
                gamma = datum.root_to_weight(_content(fy, datum.rank))
                tw = datum.q_pair(tuple(-a for a in lamx),
                                  datum.weight_sub(lamy, gamma))
                out = out + cx * cy * tw * self.pair_words(ex, fy)
        return out

    # -- tables and canonical elements --------------------------------------------

    def table(self, beta: RootSum) -> Matrix:
        beta = tuple(beta)
        return self.memo.get(("table", beta), lambda: self._table(beta))

    def _table(self, beta: RootSum) -> Matrix:
        words = self.algebra.basis(beta).free_words
        return [[self.pair_words(ew, fw) for fw in words] for ew in words]

    def xi_coefficients(self, beta: RootSum) -> Matrix:
        """Coefficient matrix C of Xi_beta = sum C[a][b] x_a (x) y_b, the
        inverse transpose of the pairing table."""
        beta = tuple(beta)
        return self.memo.get(("xi", beta), lambda: self._xi(beta))

    def _xi(self, beta: RootSum) -> Matrix:
        mat = self.table(beta)
        if not mat:
            return []
        try:
            return linalg.transpose(linalg.inverse(mat))
        except ArithmeticError as exc:
            raise QflagError(
                f"pairing matrix singular at degree {beta}") from exc

    def inverse_components(self, beta: RootSum) -> List[Tuple[UElement, UElement]]:
        """The summands x_p (x) y_p of the degree-beta part of
        sum_beta q^{(beta,beta)} (1 (x) k_beta)(S (x) id)(Xi_beta): the
        pairs C[a][b] q^{(beta,beta)} S(e_{w_a}) (x) k_beta f_{w_b} over
        the free words w, C = ``xi_coefficients(beta)``, one per nonzero
        C[a][b], row by row.  Memoized; callers must not mutate them."""
        beta = tuple(beta)
        return self.memo.get(("inverse", beta),
                             lambda: self._inverse_components(beta))

    def _inverse_components(self, beta: RootSum) -> List[Tuple[UElement, UElement]]:
        alg, datum = self.algebra, self.datum
        bw = datum.root_to_weight(beta)
        tw, kbeta = datum.q_pair(bw, bw), alg.k(bw)
        words = alg.basis(beta).free_words
        # Xi_0 = 1 (x) 1: no table to invert
        coeffs = self.xi_coefficients(beta) if any(beta) else [[datum.one()]]
        xs = [alg.antipode(alg.e_word(w)).scale(tw) for w in words]
        ys = [kbeta * alg.f_word(w) for w in words]
        return [(x.scale(c), y) for x, row in zip(xs, coeffs)
                for y, c in zip(ys, row) if not c.is_zero()]


def contributing_degrees(datum, m1: WeightModule, m2: WeightModule) -> List[RootSum]:
    """Degrees beta for which Xi_beta can act on m1 (x) m2: the plus leg
    raises weights of m1, so beta must connect two weights of m1."""
    ws = set(m1.index_weights)
    out = set()
    for w1 in ws:
        for w2 in ws:
            g = datum.drop(w2, w1)
            if g is not None:
                out.add(g)
    return sorted(out, key=by_height)


class ROperator:
    """An exact operator on (or between) tensor product carriers, held as
    its rows of nonzero cells {column: value}.  The carriers (``source``,
    ``target``) and the dense ``matrix`` are built only when read."""

    def __init__(self, m1: WeightModule, m2: WeightModule, rows: Rows,
                 flavor: str):
        self.m1 = m1
        self.m2 = m2
        self.rows = rows
        self.flavor = flavor

    @cached_property
    def source(self) -> WeightModule:
        return tensor(self.m1, self.m2)

    @cached_property
    def target(self) -> WeightModule:
        return tensor(self.m2, self.m1) if self.flavor == "R-check" \
            else self.source

    @cached_property
    def matrix(self) -> Matrix:
        return linalg.from_rows(self.rows, len(self.rows), self.m1.datum.l0)

    def describe(self) -> dict:
        return {
            "flavor": self.flavor,
            "source": self.source.name,
            "target": self.target.name,
            "matrix": [[x.to_str() for x in row] for row in self.matrix],
            "labels": list(self.source.labels),
        }


def _kappa_diagonal(m1: WeightModule, m2: WeightModule) -> List[QScalar]:
    """q^{(mu, nu)} on the basis vectors v_mu (x) w_nu of m1 (x) m2."""
    return [m1.datum.q_pair(w1, w2) for w1 in m1.index_weights
            for w2 in m2.index_weights]


def root_vectors(mod: WeightModule, kind: str) -> List[Matrix]:
    """The root vectors E_{beta_k} (kind "e") or F_{beta_k} (kind "f") on
    mod, one per letter of the reduced word w0 = (i_1 ... i_N): the
    generator of index i_k conjugated by T = T_{i_1} ... T_{i_{k-1}}.
    Memoized on the module; callers must not mutate them."""
    return mod.memo.get(("root-vectors", kind),
                        lambda: _root_vectors(mod, kind))


def _root_vectors(mod: WeightModule, kind: str) -> List[Matrix]:
    word = mod.datum.longest_word()
    ts = linalg.running_products(braid_on_module(mod, i) for i in word)
    tinvs = linalg.running_products(
        (braid_on_module(mod, i, inverse=True) for i in word), left=True)
    out = [mod.gen_matrix(kind, word[0])]
    for i, t, tinv in zip(word[1:], ts, tinvs):
        out.append(linalg.mat_mul(t, linalg.mat_mul(mod.gen_matrix(kind, i),
                                                    tinv)))
    return out


def theta_matrix(m1: WeightModule, m2: WeightModule) -> Rows:
    """The quasi-R-matrix on m1 (x) m2 as the ordered product
    Theta = X_N ... X_1, X_k = exp_{q_i^-1}((q_i^-1 - q_i) E_{beta_k} (x)
    F_{beta_k}) with i = i_k; later roots multiply on the left.  Its rows
    of nonzero cells {column: value}, memoized on m1 per partner module,
    so R and R-check on one pair share them; callers must not mutate
    them."""
    return m1.memo.get(("theta", m2), lambda: _theta_matrix(m1, m2))


def _theta_matrix(m1: WeightModule, m2: WeightModule) -> Rows:
    """Theta as rows of nonzero cells: each factor X_k = I + N_k multiplies
    as P <- P + N_k P, reading only the cells of N_k and of the rows of P
    they select."""
    datum = m1.datum
    one = datum.one()
    rows = [{r: one} for r in range(m1.dim * m2.dim)]
    for i, e, f in zip(datum.longest_word(), root_vectors(m1, "e"),
                       root_vectors(m2, "f")):
        qi = datum.q_power(datum.d(i))
        step = {}   # the new rows; N_k P reads the old ones
        for r, cells in _series_cells(e, f, -datum.d(i), qi.inverse() - qi,
                                      datum.l0).items():
            new = dict(rows[r])
            for c, v in cells.items():
                for j, x in rows[c].items():
                    y = new.get(j)
                    new[j] = v * x if y is None else y + v * x
            step[r] = {j: x for j, x in new.items() if x.num}
        for r, new in step.items():
            rows[r] = new
    return rows


def _series_cells(a: Matrix, b: Matrix, t_scale: int, c: QScalar,
                  l0: int) -> Dict[int, Dict[int, QScalar]]:
    """The nonzero cells of X - I by row, X = exp_t(c a (x) b) with
    t = q^t_scale, on the basis v_x (x) w_y at index x*n2 + y.  By
    (A (x) B)^n = A^n (x) B^n the n-th term is a_n c^n a^n (x) b^n, so the
    series stops at the first zero power of a or of b, and no
    carrier-sized matrix is formed.  a is a weight operator of nonzero
    degree (a^n moves weights by n times it), so each cell comes from one
    n and is written once."""
    n2 = len(b)
    out: Dict[int, Dict[int, QScalar]] = {}
    ap, bp, cn, n = a, b, c, 1
    while not (linalg.is_zero_matrix(ap) or linalg.is_zero_matrix(bp)):
        if n > max(len(a), n2):
            raise TruncationError("exponential series does not terminate; "
                                  "the matrix is not nilpotent")
        coeff = exp_t_coefficient(n, t_scale, l0) * cn
        bcells = [[(d, y) for d, y in enumerate(row) if y.num] for row in bp]
        for x, arow in enumerate(ap):
            for col, v in enumerate(arow):
                if not v.num:
                    continue
                cv = coeff * v
                for y, cells in enumerate(bcells):
                    if cells:
                        orow = out.setdefault(x * n2 + y, {})
                        for d, w in cells:
                            orow[col * n2 + d] = cv * w
        ap, bp, cn, n = linalg.mat_mul(a, ap), linalg.mat_mul(b, bp), \
            cn * c, n + 1
    return out


def r_inverse_matrix(pairing: DrinfeldPairing, m1: WeightModule,
                     m2: WeightModule) -> Rows:
    """The closed-form inverse: (sum_beta q^{(beta,beta)}(1 (x) k_beta)
    (S (x) id)(Xi_beta)) o kappa, as rows of nonzero cells, with no product
    in U.  For each free word w_a = (i_1 ... i_n) of degree beta, the
    letters of y_a = k_beta f_{w_a} and of x_a = q^{(beta,beta)} S(e_{w_a})
    = (-1)^n q^{(beta,beta)} k_{-alpha_{i_n}} e_{i_n} ... k_{-alpha_{i_1}}
    e_{i_1} are walked once, on m2 and m1.  The cells of x_a (x) D_a,
    D_a = sum_b C[a][b] y_b with C = ``xi_coefficients(beta)``, are added
    to identity rows, and the diagonal kappa scales their cells."""
    datum = pairing.datum
    one, n2 = datum.one(), m2.dim
    rows: Rows = [{r: one} for r in range(m1.dim * n2)]
    for beta in contributing_degrees(datum, m1, m2):
        if not any(beta):
            continue
        bw = datum.root_to_weight(beta)
        tw = datum.q_pair(bw, bw)
        tw = -tw if sum(beta) % 2 else tw
        words = pairing.algebra.basis(beta).free_words
        ys = [_walked_rows(m2, (("k", bw),) + tuple(("f", i) for i in w))
              for w in words]
        for w, crow in zip(words, pairing.xi_coefficients(beta)):
            dual: Rows = [{} for _ in range(n2)]
            for y, c in zip(ys, crow):
                if c.num:
                    _add_rows(dual, y, c * tw, 0)
            x = _walked_rows(m1, tuple(
                letter for i in reversed(w)
                for letter in (("k", datum.weight_neg(datum.alpha(i))),
                               ("e", i))))
            for r1, xrow in enumerate(x):
                block = rows[r1 * n2:(r1 + 1) * n2]
                for c1, v in xrow.items():
                    _add_rows(block, dual, v, c1 * n2)
    kap = _kappa_diagonal(m1, m2)
    return [{j: x * kap[j] for j, x in row.items() if x.num} for row in rows]


def _walked_rows(mod: WeightModule, word) -> Rows:
    """The rows of nonzero cells of a raw letter word on mod, walked from
    each basis vector."""
    one = mod.datum.one()
    rows: Rows = [{} for _ in range(mod.dim)]
    for c in range(mod.dim):
        for r, x in mod.walk(word, {c: one}).items():
            if x.num:
                rows[r][c] = x
    return rows


def _add_rows(acc: Rows, rows: Rows, c: QScalar, shift: int) -> None:
    """acc[r][j + shift] += c * rows[r][j] for every cell of rows."""
    for row, cells in zip(acc, rows):
        for j, x in cells.items():
            j, y = j + shift, c * x
            row[j] = row[j] + y if j in row else y


def _r_matrix(m1: WeightModule, m2: WeightModule) -> Rows:
    """R = Theta o kappa^-1 on m1 (x) m2 as new rows; kappa^-1 is
    diagonal, so it scales the nonzero cells of Theta's rows."""
    kinv = [c.inverse() for c in _kappa_diagonal(m1, m2)]
    return [{j: x * kinv[j] for j, x in row.items()}
            for row in theta_matrix(m1, m2)]


def r_operator(pairing: DrinfeldPairing, m1: WeightModule, m2: WeightModule,
               flavor: str = "R") -> ROperator:
    """R, R-inverse, R-check (the flip composed with R) or kappa."""
    if not (m1.exact and m2.exact):
        raise TruncationError("R-operators require exact finite modules")
    if m1.side != "left" or m2.side != "left":
        raise QflagError("R-operators act on left modules")
    if flavor == "kappa":
        rows = [{r: c} for r, c in enumerate(_kappa_diagonal(m1, m2))]
    elif flavor == "R":
        rows = _r_matrix(m1, m2)
    elif flavor == "R-inverse":
        rows = r_inverse_matrix(pairing, m1, m2)
    elif flavor == "R-check":
        # the flip v (x) v' -> v' (x) v permutes the rows of R
        r = _r_matrix(m1, m2)
        rows = [r[a * m2.dim + b] for b in range(m2.dim)
                for a in range(m1.dim)]
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return ROperator(m1, m2, rows, flavor)


def hexagon_check(pairing: DrinfeldPairing, m1: WeightModule,
                  m2: WeightModule, m3: WeightModule) -> dict:
    """(Rcheck_{V,V''} (x) id) o (id (x) Rcheck_{V',V''}) == Rcheck_{VxV',V''}.
    The left side is formed from the rows of the two R-checks
    (``_hexagon_lhs``) and compared with the right side's rows on the
    union of each row's nonzero cells in row-major order, so the first
    mismatch is the first cell in that order where the sides differ.  No
    carrier of m1 (x) m2 (x) m3 and no matrix of its size is built."""
    r23 = r_operator(pairing, m2, m3, "R-check").rows
    r13 = r_operator(pairing, m1, m3, "R-check").rows
    lhs = _hexagon_lhs(r13, r23, m2.dim, m3.dim)
    rhs = r_operator(pairing, tensor(m1, m2), m3, "R-check").rows
    report = {
        "instance": f"{m1.name} (x) {m2.name} (x) {m3.name}",
        "pass": True,
    }
    zero = pairing.datum.zero()
    for i, (row, rrow) in enumerate(zip(lhs, rhs)):
        cols = {j for j, x in row.items() if x.num}
        cols.update(j for j, y in rrow.items() if y.num)
        for j in sorted(cols):
            a, b = row.get(j, zero), rrow.get(j, zero)
            if a != b:
                report["pass"] = False
                report["counterexample"] = {
                    "row": i, "col": j, "lhs": a.to_str(), "rhs": b.to_str()}
                return report
    return report


def _hexagon_lhs(r13: Rows, r23: Rows, n2: int, n3: int) -> Rows:
    """The rows of (r13 (x) id_{n2}) o (id_{n1} (x) r23) as {column: value},
    with columns on the basis v_a (x) w_b (x) u_c at index
    (a*n2 + b)*n3 + c.  Row u*n2 + b of the product, u a row of r13, is
    the sum over the nonzero cells r13[u][a*n3 + c] of that cell times row
    c*n2 + b of r23, placed in the columns of block a (from a*n2*n3 on);
    no carrier-sized identity, kron or product is formed."""
    n23 = n2 * n3
    rows: Rows = []
    for urow in r13:
        cells13 = [(divmod(v, n3), x) for v, x in urow.items() if x.num]
        for b in range(n2):
            out: Dict[int, QScalar] = {}
            for (a, c), x in cells13:
                base = a * n23
                for s, y in r23[c * n2 + b].items():
                    z = x * y
                    j = base + s
                    out[j] = out[j] + z if j in out else z
            rows.append(out)
    return rows
