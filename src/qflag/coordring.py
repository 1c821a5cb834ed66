"""The graded coordinate ring of the quantized flag manifold.

The grade-lam piece A(lam) is the simple module V(lam) carried through the
matrix-coefficient identification: an element of grade lam and drop gamma
is a coordinate vector in the drop-gamma weight space of V(lam), and it is
determined by its evaluations <v*_lam, x v> against the plus-part words x
of degree gamma.  The ring reads V(lam) from the algebra's one
``weightmod.simple_factory``, whose weight spaces are built one drop at a
time, only as far as they are asked for.  The evaluation matrix of a
weight space is the contravariant-form Gram matrix the factory builds it
from, on its pivot columns.  A product is computed as its evaluations
(``product_evaluations``): the graded dual of the plus part is the quantum
shuffle algebra, so each is a q-shuffle of the two factors' evaluations,
with no coproduct walked.  Callers that only pair a product against words
read those as they are; ``mult`` takes them to coordinates through one
factorization per slice (the inverse of an independent block of rows,
every row checked).  Each product is computed once per ring: both are
memoized by the grade, drop and coordinates of the two factors.  A
multiplication matrix (l_phi or r_phi on a module or a slice) is built
once per ray: a multiple c*phi reads phi's matrix and scales it by c.  On
top of the ring sit extremal elements, Ore witnesses, stabilized
localizations, the evaluation map onto plus-part functionals, and
Schubert-cell homomorphisms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .cartan import RootSum, Weight, box, by_height, kostant_dim
from .enveloping import UAlgebra, UElement, _content
from .errors import DominanceError, OreSearchError, QflagError
from .linalg import Matrix, Vector
from .memo import Memo
from .scalars import QScalar, quantum_factorial
from .weightmod import SimpleFactory, WeightModule, braid_word, simple_factory

# auxiliary grades of height at most this are tried for Ore witnesses
ORE_SEARCH_HEIGHT = 6
# stabilization searches try the levels 0, rho, ..., MAX_LEVEL * rho
MAX_LEVEL = 8


class CoordElement:
    """A homogeneous element of A: grade lam, weight lam - gamma, with a
    coordinate vector in the drop-gamma slice of V(lam)."""

    __slots__ = ("ring", "grade", "gamma", "vec")

    def __init__(self, ring: "CoordRing", grade: Weight, gamma: RootSum,
                 vec: Vector):
        self.ring = ring
        self.grade = tuple(grade)
        self.gamma = tuple(gamma)
        self.vec = list(vec)

    @property
    def weight(self) -> Weight:
        return self.ring.datum.weight_sub_root(self.grade, self.gamma)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.vec)

    def scale(self, c: QScalar) -> "CoordElement":
        return CoordElement(self.ring, self.grade, self.gamma,
                            [c * x for x in self.vec])

    def __add__(self, other: "CoordElement") -> "CoordElement":
        if self.grade != other.grade or self.gamma != other.gamma:
            raise ValueError("can only add homogeneous elements of equal "
                             "grade and weight")
        return CoordElement(self.ring, self.grade, self.gamma,
                            [a + b for a, b in zip(self.vec, other.vec)])

    def __sub__(self, other: "CoordElement") -> "CoordElement":
        return self + other.scale(-self.ring.datum.one())

    def __mul__(self, other: "CoordElement") -> "CoordElement":
        return self.ring.mult(self, other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CoordElement) and self.grade == other.grade
                and self.gamma == other.gamma and self.vec == other.vec)

    def evaluations(self) -> List[QScalar]:
        """<phi, x_b> over the canonical basis words of the plus part in the
        matching degree (the functionals that determine phi)."""
        return self.ring.evaluations(self)

    def describe(self) -> dict:
        datum = self.ring.datum
        return {
            "grade": datum.weight_str(self.grade),
            "weight": datum.weight_str(self.weight),
            "coords": [x.to_str() for x in self.vec],
        }

    def __repr__(self) -> str:
        d = self.describe()
        return f"CoordElement(grade={d['grade']}, weight={d['weight']})"


class LocalizedElement:
    """A fraction (c^w_mu)^{-1} psi in the localized ring: denominator
    grade mu, numerator of grade lam + mu.  Two representatives denote the
    same element exactly when they agree after raising to a common level
    (``raise_level``), which the injectivity of extremal multiplication
    makes well-defined."""

    __slots__ = ("ring", "word", "level", "numerator")

    def __init__(self, ring: "CoordRing", word: Sequence[int], level: Weight,
                 numerator: CoordElement):
        self.ring = ring
        self.word = ring.datum.weyl_canonical(word)
        self.level = tuple(level)
        self.numerator = numerator

    @property
    def grade(self) -> Weight:
        return self.ring.datum.weight_sub(self.numerator.grade, self.level)

    def raise_level(self, nu: Weight) -> "LocalizedElement":
        """The representative at denominator grade level + nu."""
        ring = self.ring
        datum = ring.datum
        nu = tuple(nu)
        c_nu = ring.extremal(self.word, nu)
        c_mu = ring.extremal(self.word, self.level)
        c_top = ring.extremal(self.word, datum.weight_add(nu, self.level))
        prod = ring.mult(c_nu, c_mu)
        kappa = None
        for x, y in zip(prod.vec, c_top.vec):
            if not y.is_zero():
                kappa = x / y
        if kappa is None or kappa.is_zero():
            raise QflagError("extremal product degenerated")
        num = ring.mult(c_nu, self.numerator).scale(kappa.inverse())
        return LocalizedElement(ring, self.word,
                                datum.weight_add(self.level, nu), num)

    def describe(self) -> dict:
        datum = self.ring.datum
        return {
            "word": list(self.word),
            "grade": datum.weight_str(self.grade),
            "level": datum.weight_str(self.level),
            "numerator": self.numerator.describe(),
        }


def _element_key(a: CoordElement) -> tuple:
    """Memo key of an element: grade, drop and coordinates."""
    return (a.grade, a.gamma, tuple(a.vec))


def _pair_key(a: CoordElement, b: CoordElement) -> tuple:
    """Memo key of the ordered pair (a, b)."""
    return _element_key(a) + _element_key(b)


def _shuffles(word: Tuple[int, ...], need: RootSum, start: Tuple[int, ...],
              pair: List[List[int]]
              ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """Each split of ``word`` into the subword on a position set S of
    content ``need`` and the subword on the other positions, with the
    exponent l0 e(S): walking from the right, a letter i off S adds
    lin[i], where lin starts at ``start`` and each letter j put in S adds
    the column ``pair[.][j]`` to it."""
    # left[t][i]: the letters i among positions 0..t
    left, count = [], [0] * len(need)
    for i in word:
        count[i] += 1
        left.append(tuple(count))
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...], int]] = []

    def walk(t, need, lin, wa, wb, e):
        if t < 0:
            out.append((wa, wb, e))
            return
        i = word[t]
        if need[i]:
            walk(t - 1, need[:i] + (need[i] - 1,) + need[i + 1:],
                 tuple(x + row[i] for x, row in zip(lin, pair)),
                 (i,) + wa, wb, e)
        if left[t][i] > need[i]:
            walk(t - 1, need, lin, wa, (i,) + wb, e + lin[i])
    walk(len(word) - 1, tuple(need), start, (), (), 0)
    return out


class CoordRing:
    """Lazy exact model of the Lambda^+-graded coordinate ring."""

    def __init__(self, algebra: UAlgebra):
        self.algebra = algebra
        self.datum = algebra.datum
        self.memo = Memo()

    # -- graded pieces ---------------------------------------------------------

    def factory(self, lam: Weight) -> SimpleFactory:
        lam = tuple(lam)
        if not self.datum.is_dominant(lam):
            raise DominanceError(f"grade {lam} is not dominant")
        return simple_factory(self.algebra, lam)

    def module(self, lam: Weight) -> WeightModule:
        """The full simple module of grade lam (for braid operators): the
        algebra's one V(lam), the module ``weightmod.simple`` returns."""
        return self.factory(lam).build()

    def grade_dim(self, lam: Weight) -> int:
        return self.factory(lam).char.total()

    def unit(self) -> CoordElement:
        zero = self.datum.zero_weight
        return CoordElement(self, zero, self.datum.zero_root,
                            [self.datum.one()])

    def highest(self, lam: Weight) -> CoordElement:
        """f_lam(v_lam): the grade-lam highest-weight line, normalized."""
        self.factory(lam)
        return CoordElement(self, lam, self.datum.zero_root,
                            [self.datum.one()])

    def element(self, lam: Weight, gamma: RootSum, vec: Vector) -> CoordElement:
        return CoordElement(self, lam, gamma, vec)

    def slice_basis(self, lam: Weight, gamma: RootSum) -> List[CoordElement]:
        fac = self.factory(lam)
        d = fac.slice_dim(tuple(gamma))
        out = []
        for r in range(d):
            vec = [self.datum.zero()] * d
            vec[r] = self.datum.one()
            out.append(CoordElement(self, lam, tuple(gamma), vec))
        return out

    def grade_basis(self, lam: Weight) -> List[CoordElement]:
        fac = self.factory(lam)
        out = []
        for g in sorted(fac.drops, key=by_height):
            out.extend(self.slice_basis(lam, g))
        return out

    # -- evaluations and multiplication -----------------------------------------

    def evaluations(self, a: CoordElement) -> List[QScalar]:
        mat, words, d = self.eval_solver(a.grade, a.gamma)
        if d == 0:
            return [self.datum.zero()] * len(words)
        return linalg.mat_vec(mat, a.vec)

    def eval_solver(self, lam: Weight, gamma: RootSum) -> tuple:
        """(matrix, words, d): the evaluation matrix of the drop-gamma slice
        of grade lam (rows: plus-part basis words; cols: the d slice basis
        vectors; [] when d is 0).  It is the slice's contravariant Gram on
        its pivot columns, kept by the factory; callers must not mutate it.
        A drop off the positive cone has no words."""
        gamma = tuple(gamma)
        data = self.factory(lam).slice(gamma)
        if data is None:
            return ([], self._words(gamma), 0)
        return (data["eval"], data["words"], len(data["pivots"]))

    def _words(self, gamma: RootSum) -> List[Tuple[int, ...]]:
        """The plus-part basis words of degree gamma; none below zero."""
        if any(c < 0 for c in gamma):
            return []
        return self.algebra.basis(gamma).free_words

    def eval_factor(self, lam: Weight, gamma: RootSum
                     ) -> Tuple[List[int], Matrix]:
        """(rows, inverse): d independent rows of the evaluation matrix of
        the (lam, gamma)-slice (d > 0) and the inverse of the d x d block
        they form: every row of an invertible square matrix, else the rows
        the reduction of its transpose picks.  One per slice, memoized."""
        key = ("eval_factor", tuple(lam), tuple(gamma))

        def factor():
            mat, _words, d = self.eval_solver(lam, gamma)
            if len(mat) == d:
                try:
                    return list(range(d)), linalg.inverse(mat)
                except ArithmeticError:
                    pass
            _ech, rows = linalg.rref(linalg.transpose(mat))
            return rows, linalg.inverse([mat[r] for r in rows])
        return self.memo.get(key, factor)

    def from_evaluations(self, lam: Weight, gamma: RootSum,
                         values: List[QScalar]) -> CoordElement:
        """The unique grade-lam element with the given evaluations against
        the degree-gamma plus-part basis words: the inverse of an
        independent block applied to its values, then every row outside
        the block checked (the block's rows give back their values
        identically, so a square slice needs no check)."""
        mat, _words, d = self.eval_solver(lam, gamma)
        if d == 0:
            if any(not v.is_zero() for v in values):
                raise QflagError("evaluations of the zero weight space "
                                 "must vanish")
            return CoordElement(self, lam, gamma, [])
        rows, inv = self.eval_factor(lam, gamma)
        sol = linalg.mat_vec(inv, [values[r] for r in rows])
        block = set(rows)
        if any(linalg.row_dot(mat[r], sol) != values[r]
               for r in range(len(mat)) if r not in block):
            raise QflagError(
                f"evaluation system inconsistent at grade {lam}, drop {gamma}")
        return CoordElement(self, lam, gamma, sol)

    def mult(self, a: CoordElement, b: CoordElement) -> CoordElement:
        """The product ab, memoized on the ring by both factors: callers
        share the result and must not mutate it."""
        return self.memo.get(("mult",) + _pair_key(a, b), lambda:
                             self.from_evaluations(
                                 *self.product_evaluations(a, b)))

    def product_evaluations(self, a: CoordElement, b: CoordElement
                            ) -> Tuple[Weight, RootSum, List[QScalar]]:
        """(grade, drop, evaluations) of the product ab over the plus-part
        basis words, as q-shuffles of the factors' evaluations, without
        solving for its coordinates.  Memoized on the ring by both
        factors; callers must not mutate the values."""
        return self.memo.get(("product",) + _pair_key(a, b),
                             lambda: self._product_evaluations(a, b))

    def _product_evaluations(self, a: CoordElement, b: CoordElement
                             ) -> Tuple[Weight, RootSum, List[QScalar]]:
        # the graded dual of the plus part is the quantum shuffle algebra:
        # <ab, x_w> = sum over the position sets S of w of content gamma(a)
        # of q^{e(S)} <a, x_{w|S}> <b, x_{w|S^c}>, where each letter w_t
        # off S contributes (alpha_{w_t}, wt(a) + alpha of w|S right of t),
        # the twist of Delta(e_i) = e_i (x) 1 + k_i (x) e_i
        datum = self.datum
        grade = datum.weight_add(a.grade, b.grade)
        gamma = tuple(x + y for x, y in zip(a.gamma, b.gamma))
        # a zero factor, also one at a drop off its module (no coordinates
        # and a drop that may be negative), has nothing to split
        if a.is_zero() or b.is_zero():
            return grade, gamma, [datum.zero()] * len(self._words(gamma))
        ev_a, ev_b = self._word_values(a), self._word_values(b)
        values = []
        for splits in self._splits(gamma, a.gamma, a.weight):
            val = datum.zero()
            for wa, wb, e in splits:
                x = ev_a(wa)
                if x.is_zero():
                    continue
                y = ev_b(wb)
                if not y.is_zero():
                    val = val + QScalar.q_l0(e, datum.l0) * (x * y)
            values.append(val)
        return grade, gamma, values

    def _splits(self, gamma: RootSum, need: RootSum, weight: Weight
                ) -> List[List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]]:
        """Per plus-part basis word of degree gamma, its ``_shuffles`` for
        a left factor of drop need and weight ``weight``.  Memoized."""
        def build():
            datum = self.datum
            alphas = [datum.alpha(i) for i in range(datum.rank)]
            pair = [[datum.pair_l0(x, y) for y in alphas] for x in alphas]
            start = tuple(datum.pair_l0(x, weight) for x in alphas)
            return [_shuffles(w, need, start, pair)
                    for w in self._words(gamma)]
        return self.memo.get(("splits", gamma, need, weight), build)

    def _word_values(self, a: CoordElement
                     ) -> Callable[[Tuple[int, ...]], QScalar]:
        """u -> <a, x_u> for the raw words u of degree gamma(a): the
        free-word coordinates of x_u dotted with the evaluations of a.  One
        table per factor on the ring, filled as words are asked for."""
        def build():
            basis = self.algebra.basis(a.gamma)
            evals = dict(zip(basis.free_words, self.evaluations(a)))
            table: Dict[Tuple[int, ...], QScalar] = {}

            def value(u: Tuple[int, ...]) -> QScalar:
                v = table.get(u)
                if v is None:
                    v = self.datum.zero()
                    for w, c in basis.reduce_word(u).items():
                        if not evals[w].is_zero():
                            v = v + c * evals[w]
                    table[u] = v
                return v
            return value
        return self.memo.get(("word_values",) + _element_key(a), build)

    def u_action(self, u: UElement, a: CoordElement) -> CoordElement:
        """The left action of u; all monomials of u must shift the weight
        by the same amount.  A vanishing image is the zero element at the
        drop that shift lands on."""
        datum = self.datum
        fac = self.factory(a.grade)
        out: Optional[CoordElement] = None
        for (fw, nu, ew), c in u.terms.items():
            res = fac.apply_word(a.gamma, a.vec, "e", ew)
            if res is None:
                continue
            g, v = res
            tw = c * datum.q_pair(nu, datum.weight_sub_root(a.grade, g))
            res = fac.apply_word(g, [tw * x for x in v], "f", fw)
            if res is None or all(x.is_zero() for x in res[1]):
                continue
            term = CoordElement(self, a.grade, *res)
            if out is None:
                out = term
            elif out.gamma == term.gamma:
                out = out + term
            elif out.is_zero():
                out = term
            else:
                raise QflagError("u_action: mixed weight shifts; apply "
                                 "monomials separately")
        if out is not None:
            return out
        fw, _nu, ew = next(iter(u.terms), ((), None, ()))
        gamma = tuple(g + f - e for g, f, e in zip(
            a.gamma, _content(fw, datum.rank), _content(ew, datum.rank)))
        return CoordElement(self, a.grade, gamma, [datum.zero()] *
                            self.factory(a.grade).slice_dim(gamma))

    # -- extremal elements and Ore sets --------------------------------------------

    def extremal(self, word: Sequence[int], lam: Weight) -> CoordElement:
        """c^w_lam: the deterministic extremal vector of weight w^{-1}lam,
        built by divided-power lowering along the canonical reduced word.
        Memoized per (w, lam); callers must not mutate it."""
        key = ("extremal", self.datum.weyl_canonical(word), tuple(lam))
        return self.memo.get(key, lambda: self._extremal(*key[1:]))

    def _extremal(self, word: Tuple[int, ...], lam: Weight) -> CoordElement:
        datum = self.datum
        if not datum.is_dominant(lam):
            raise DominanceError(f"{lam} is not dominant")
        fac = self.factory(lam)
        winv = datum.weyl_canonical(tuple(reversed(word)))
        cur_weight = lam
        gamma = datum.zero_root
        vec: Vector = [datum.one()]
        for j in reversed(winv):
            m = cur_weight[j]
            if m < 0:
                raise QflagError("non-dominant step in extremal lowering")
            res = fac.apply_word(gamma, vec, "f", (j,) * m)
            if res is None:
                raise QflagError("extremal lowering left the module")
            gamma, vec = res
            fact = quantum_factorial(m, datum.d(j), datum.l0)
            vec = [x * fact.inverse() for x in vec]
            cur_weight = datum.reflect(j, cur_weight)
        out = CoordElement(self, lam, gamma, vec)
        if fac.slice_dim(gamma) != 1:
            raise QflagError("extremal weight space is not one-dimensional")
        if out.is_zero():
            raise QflagError("extremal vector collapsed to zero")
        return out

    def slice_element(self, mod: WeightModule, idx: int) -> CoordElement:
        """The coordinate-ring element carried by a full-module basis index."""
        lam = mod.highest_weight
        g, r = mod.slot_keys[idx]
        vec = [self.datum.zero()] * self.factory(lam).slice_dim(g)
        vec[r] = self.datum.one()
        return CoordElement(self, lam, g, vec)

    def embed_full(self, mod: WeightModule, phi: CoordElement) -> Vector:
        out = mod.zero_vector()
        for r, c in enumerate(phi.vec):
            out[mod.slot[(phi.gamma, r)]] = c
        return out

    def side_mult(self, s: CoordElement, x: CoordElement,
                  side: str) -> CoordElement:
        """s*x ('left') or x*s ('right')."""
        return self.mult(s, x) if side == "left" else self.mult(x, s)

    def full_mult_matrix(self, lam: Weight, phi: CoordElement,
                         side: str) -> Matrix:
        """Matrix of x -> phi*x ('left') or x -> x*phi ('right') from the
        full module of grade lam to that of grade lam + grade(phi): the
        matrix of phi's ray, built once per ring, times phi's scale (see
        ``_ray``).  Callers must not mutate it."""
        lam = tuple(lam)
        c, ray = self._ray(phi)
        mat = self.memo.get(("full_mult", lam, side) + _element_key(ray),
                            lambda: self._full_mult_columns(lam, ray, side))
        return mat if c is None else linalg.mat_scale(mat, c)

    def _full_mult_columns(self, lam: Weight, phi: CoordElement,
                           side: str) -> Matrix:
        """``full_mult_matrix`` column by column: phi times each basis
        vector of the full module of grade lam."""
        src = self.module(lam)
        tgt = self.module(self.datum.weight_add(lam, phi.grade))
        return linalg.transpose([
            self.embed_full(tgt, self.side_mult(
                phi, self.slice_element(src, idx), side))
            for idx in range(src.dim)])

    def mult_matrix(self, lam: Weight, gamma: RootSum, s: CoordElement,
                    side: str) -> Matrix:
        """Matrix of phi -> s*phi ('left') or phi -> phi*s ('right') from
        the (lam, gamma)-slice: the matrix of s's ray, built once per ring,
        times s's scale (see ``_ray``).  Callers must not mutate it."""
        lam, gamma = tuple(lam), tuple(gamma)
        c, ray = self._ray(s)
        mat = self.memo.get(
            ("slice_mult", lam, gamma, side) + _element_key(ray),
            lambda: self._slice_mult_columns(lam, gamma, ray, side))
        return mat if c is None else linalg.mat_scale(mat, c)

    def _slice_mult_columns(self, lam: Weight, gamma: RootSum,
                            s: CoordElement, side: str) -> Matrix:
        """``mult_matrix`` column by column: s times each slice basis
        vector."""
        return linalg.transpose([self.side_mult(s, phi, side).vec
                                 for phi in self.slice_basis(lam, gamma)])

    def _ray(self, phi: CoordElement
             ) -> Tuple[Optional[QScalar], CoordElement]:
        """(c, phi/c), c the first nonzero coordinate of phi: products are
        bilinear, so a multiplication matrix of phi is c times that of the
        ray phi/c, whose first nonzero coordinate is 1.  (None, phi) when c
        is 1 or phi is zero."""
        c = next((x for x in phi.vec if x.num), None)
        if c is None or c.is_one():
            return None, phi
        inv = c.inverse()
        return c, CoordElement(self, phi.grade, phi.gamma,
                               [x * inv for x in phi.vec])

    def ore_witness(self, phi: CoordElement, word: Sequence[int],
                    s_grade: Weight,
                    side: str = "left") -> Tuple[CoordElement, CoordElement]:
        """For s = c^w_{s_grade}: find (t, psi), t = c^w_mu, with
        t*phi = psi*s (left) or phi*t = s*psi (right), exactly."""
        datum = self.datum
        word = datum.weyl_canonical(word)
        s = self.extremal(word, s_grade)
        # s multiplies psi on the side opposite to the one t multiplies phi
        other = "right" if side == "left" else "left"
        ht = ORE_SEARCH_HEIGHT
        candidates = sorted(box((ht,) * datum.rank, height=ht), key=by_height)
        for mu in candidates:
            xi = datum.weight_sub(datum.weight_add(mu, phi.grade), s_grade)
            if not datum.is_dominant(xi):
                continue
            t = self.extremal(word, mu)
            lhs = self.side_mult(t, phi, side)
            gpsi = tuple(x - y for x, y in zip(lhs.gamma, s.gamma))
            if any(c < 0 for c in gpsi):
                continue
            mat = self.mult_matrix(xi, gpsi, s, other)
            if not mat or len(mat[0]) == 0:
                continue
            sol = linalg.solve(mat, lhs.vec)
            if sol is not None:
                psi = CoordElement(self, xi, gpsi, sol)
                if self.side_mult(s, psi, other).vec == lhs.vec:
                    return t, psi
        raise OreSearchError(
            f"no {side} Ore witness within auxiliary grades of height "
            f"{ORE_SEARCH_HEIGHT} for drop {phi.gamma} against {s_grade}")

    # -- localization ---------------------------------------------------------

    def first_level(self, lam: Weight,
                    passes: Callable[[Weight], bool]) -> Optional[Weight]:
        """The first level mu = 0, rho, ..., MAX_LEVEL * rho whose grade
        lam + mu is dominant and passes ``passes`` (which may raise), or
        None when no level does."""
        datum = self.datum
        mu = datum.zero_weight
        for _level in range(MAX_LEVEL + 1):
            grade = datum.weight_add(lam, mu)
            if datum.is_dominant(grade) and passes(grade):
                return mu
            mu = datum.weight_add(mu, datum.rho)
        return None

    def localize(self, word: Sequence[int], lam: Weight,
                 gamma: RootSum) -> dict:
        """Stabilized weight-space data of the localized grade lam at drop
        gamma.  Each graded piece is a quotient of the degree-gamma
        plus-part, so the partition count bounds the dimension from above
        while the level maps are injective; stabilization is certified once
        the bound is attained, and the search reports the level."""
        datum = self.datum
        word = datum.weyl_canonical(word)
        gamma = tuple(gamma)
        bound = kostant_dim(datum, gamma)

        def stable(grade: Weight) -> bool:
            drop = self._twisted_drop(word, grade, gamma)
            if drop is None:
                return False
            d = self.factory(grade).slice_dim(drop)
            if d > bound:
                raise QflagError("weight space exceeds partition bound")
            return d == bound and self._step_injective(word, grade, drop)

        mu = self.first_level(lam, stable)
        rep = {"word": list(word), "grade": datum.weight_str(lam),
               "drop": datum.root_str(gamma)}
        if mu is None:
            rep.update(stabilized=False, max_level=MAX_LEVEL)
        else:
            rep.update(dimension=bound, level=datum.weight_str(mu),
                       stabilized=True)
        return rep

    def _twisted_drop(self, word, grade: Weight,
                      gamma: RootSum) -> Optional[RootSum]:
        """Drop of the weight w^{-1}(grade - gamma) below grade; None when
        it is not below."""
        datum = self.datum
        winv = tuple(reversed(datum.weyl_canonical(word)))
        w = datum.weyl_act(winv, datum.weight_sub_root(grade, gamma))
        return datum.drop(grade, w)

    def _step_injective(self, word, grade: Weight, drop: RootSum) -> bool:
        """Injectivity of right multiplication by c^w_rho out of the
        stabilized space (the Ore-regularity check)."""
        datum = self.datum
        c = self.extremal(word, datum.rho)
        mat = self.mult_matrix(grade, drop, c, "right")
        d = self.factory(grade).slice_dim(drop)
        return linalg.rank(mat) == d if d else True

    def localized_character(self, word: Sequence[int], lam: Weight,
                            depth: RootSum) -> Dict[RootSum, int]:
        """Dims of the stabilized localized grade-lam piece at all drops
        gamma <= depth componentwise."""
        out: Dict[RootSum, int] = {}
        for g in sorted(box(depth), key=by_height):
            rep = self.localize(word, lam, g)
            if not rep.get("stabilized"):
                raise QflagError(f"localization did not stabilize at {g}")
            out[g] = rep["dimension"]
        return out

    # -- the evaluation isomorphism onto plus-part functionals ----------------------

    def theta_check(self, lam: Weight, depth: RootSum) -> dict:
        """Check that the stabilized localized spaces evaluate bijectively
        against plus-part degree pieces (dims match, map injective)."""
        datum = self.datum
        results = []
        ok = True
        for g in sorted(box(depth), key=by_height):
            target = len(self.algebra.basis(g).free_words)
            mu = self.first_level(
                lam, lambda grade: self.factory(grade).slice_dim(g) == target)
            if mu is None:
                found = {"drop": datum.root_str(g), "pass": False,
                         "reason": "no stabilization level found"}
            else:
                mat, _w, d = self.eval_solver(datum.weight_add(lam, mu), g)
                rk = linalg.rank(mat) if d else 0
                found = {
                    "drop": datum.root_str(g),
                    "space_dim": d,
                    "functional_dim": target,
                    "rank": rk,
                    "level": datum.weight_str(mu),
                    "pass": rk == d == target,
                }
            ok = ok and found["pass"]
            results.append(found)
        return {"grade": datum.weight_str(lam), "pass": ok, "drops": results}

    # -- Schubert homomorphisms ------------------------------------------------

    def schubert(self, word: Sequence[int], phi: CoordElement) -> dict:
        """epsilon_w(phi) and the functional table of Phi_w(phi) on the
        plus-part degree basis (tabulated on the unique contributing
        degree)."""
        datum = self.datum
        word = datum.weyl_canonical(word)
        mod = self.module(phi.grade)
        tw = self._braid_matrix(phi.grade, word)
        vfull = self.embed_full(mod, phi)
        eps = linalg.row_dot(tw[mod.distinguished["highest"]], vfull)
        # Phi_w(phi)(x) = <v*_lam, T_w(x v_phi)> on U^+_gamma,
        # gamma = w^{-1}lam - weight(phi)
        table: Dict[str, List[str]] = {}
        target = datum.weyl_act(tuple(reversed(word)), phi.grade)
        g = datum.drop(target, phi.weight)
        if g is not None:
            table[datum.root_str(g)] = [
                linalg.row_dot(self._schubert_row(mod, tw, xw), vfull).to_str()
                for xw in self.algebra.basis(g).free_words]
        return {"epsilon": eps, "table": table}

    def _schubert_row(self, mod: WeightModule, tw: Matrix,
                      xw: Tuple[int, ...]) -> Vector:
        """v -> <v*_lam, T_w(x v)> as a row, for the plus-part word x."""
        top = mod.distinguished["highest"]
        return linalg.mat_mul([tw[top]], mod.act(self.algebra.e_word(xw)))[0]

    def _braid_matrix(self, lam: Weight, word) -> Matrix:
        lam, word = tuple(lam), tuple(word)
        return self.memo.get(("braid", lam, word),
                             lambda: braid_word(self.module(lam), word))

    def schubert_kernel_dim(self, word: Sequence[int], lam: Weight) -> int:
        """dim of the grade-lam piece of Ker(Phi_w): vectors v in V(lam)
        with <v*_lam, T_w(x v)> = 0 for every plus-part word x."""
        datum = self.datum
        word = datum.weyl_canonical(word)
        mod = self.module(tuple(lam))
        tw = self._braid_matrix(tuple(lam), word)
        target = datum.weyl_act(tuple(reversed(word)), tuple(lam))
        rows: List[Vector] = []
        for w in mod.weights():
            g = datum.drop(target, w)
            if g is None:
                continue
            rows.extend(self._schubert_row(mod, tw, xw)
                        for xw in self.algebra.basis(g).free_words)
        if not rows:
            return mod.dim
        return mod.dim - linalg.rank(rows)
