"""Weight modules with exact generator matrices.

Verma modules are truncated to a weight-drop window; missing weight spaces
are flagged as either genuinely zero or truncated away, which lets relation
checks restrict themselves to the exact region.  The simple module V(lam)
is the Verma module modulo the radical of its contravariant form (the
anti-automorphism swapping E and F).  One ``SimpleFactory`` per algebra and
lam builds it weight space by weight space, each from one Gram matrix of
that form on free words, and the module it builds is the one V(lam) of the
algebra.  The braid operators T_i^+-1 on an exact module come from
Lusztig's closed formula, applied to one basis vector at a time through
the generators' nonzero cells.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .cartan import (CharacterPoly, RootSum, Weight, box, by_height,
                     weyl_character, weyl_multiplicity)
from .enveloping import UAlgebra, UElement, _content
from .errors import DominanceError, QflagError, SideMismatchError, TruncationError
from .linalg import Matrix, Vector
from .memo import Memo
from .scalars import QScalar, exp_t_coefficient, quantum_integer


class WeightModule:
    """A weight-graded left or right module given by generator matrices."""

    def __init__(self, algebra: UAlgebra, side: str,
                 index_weights: List[Weight],
                 gen: Dict[Tuple[str, int], Matrix],
                 missing_exact: Callable[[Weight], bool],
                 exact: bool,
                 labels: Optional[List[str]] = None,
                 distinguished: Optional[Dict[str, int]] = None,
                 name: str = "module"):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.datum = algebra.datum
        self.side = side
        self.index_weights = list(index_weights)
        self.gen = gen
        self.missing_exact = missing_exact
        self.exact = exact
        self.labels = labels or [f"b{i}" for i in range(len(index_weights))]
        self.distinguished = distinguished or {}
        self.name = name
        self._weight_set = set(self.index_weights)
        self.memo = Memo()

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.index_weights)

    def weights(self) -> List[Weight]:
        return sorted(self._weight_set)

    def weight_indices(self, w: Weight) -> List[int]:
        w = tuple(w)
        return [i for i, x in enumerate(self.index_weights) if x == w]

    def weight_dim(self, w: Weight) -> int:
        return len(self.weight_indices(w))

    def character(self) -> CharacterPoly:
        terms: Dict[Weight, int] = {}
        for w in self.index_weights:
            terms[w] = terms.get(w, 0) + 1
        return CharacterPoly(self.datum, terms)

    def zero_vector(self) -> Vector:
        return [self.datum.zero()] * self.dim

    def basis_vector(self, i: int) -> Vector:
        v = self.zero_vector()
        v[i] = self.datum.one()
        return v

    # -- actions -------------------------------------------------------------

    def k_diagonal(self, lam: Sequence[int]) -> List[QScalar]:
        """q^(lam, wt) per basis vector, the diagonal of k_lam.  Memoized;
        do not mutate."""
        lam = tuple(lam)
        return self.memo.get(("k", lam), lambda: [
            self.datum.q_pair(lam, w) for w in self.index_weights])

    def k_matrix(self, lam: Sequence[int]) -> Matrix:
        return linalg.diagonal(self.k_diagonal(lam), self.datum.l0)

    def gen_matrix(self, kind: str, i: int) -> Matrix:
        return self.gen[(kind, i)]

    def _cells(self, kind: str, i: int) -> List[List[Tuple[int, QScalar]]]:
        """The nonzero cells of the generator matrix of (kind, i) by column:
        a list of (row, value) per column.  Memoized; do not mutate."""
        def build():
            cols: List[List[Tuple[int, QScalar]]] = [[] for _ in
                                                     range(self.dim)]
            for r, row in enumerate(self.gen[(kind, i)]):
                for j, x in enumerate(row):
                    if not x.is_zero():
                        cols[j].append((r, x))
            return cols
        return self.memo.get(("cells", kind, i), build)

    def applied_letters(self, word):
        """The letters of a raw word in the order they act on a vector: for
        a left module l1...ln acts by l1(l2(...(ln v))), for a right module
        v.(l1...ln) applies l1 first."""
        return reversed(word) if self.side == "left" else word

    def walk(self, word, vec: Dict[int, QScalar]) -> Dict[int, QScalar]:
        """A raw letter word applied to a sparse vector {index: value}: an
        e or f letter through the nonzero cells of its matrix, a k_mu
        letter as the scalar q^(mu, wt) on each index."""
        for kind, v in self.applied_letters(word):
            if kind == "k":
                diag = self.k_diagonal(v)
                vec = {j: diag[j] * x for j, x in vec.items()}
                continue
            vec = _image(self._cells(kind, v), vec.items())
        return vec

    def act(self, u: UElement) -> Matrix:
        """Matrix of u (left action) or of right multiplication by u, a new
        matrix: each term's word walked from every basis vector."""
        n = self.dim
        out = linalg.zeros(n, n, self.datum.l0)
        for (fw, lam, ew), c in u.terms.items():
            word = self.algebra.monomial_word(fw, lam, ew)
            for col in range(n):
                for r, x in self.walk(word, {col: c}).items():
                    out[r][col] = out[r][col] + x
        return out

    # -- exactness bookkeeping --------------------------------------------------

    def step_delta(self, kind: str, i: int) -> Weight:
        """Weight shift on this module of one generator letter."""
        a = self.datum.alpha(i)
        if self.side == "left":
            return a if kind == "e" else tuple(-x for x in a)
        return tuple(-x for x in a) if kind == "e" else a

    def step(self, w: Weight, letter) -> Optional[Weight]:
        """The weight that one raw letter takes weight w to, or None when
        that weight space is truncated away."""
        kind, v = letter
        if kind == "k":
            return w
        w = self.datum.weight_add(w, self.step_delta(kind, v))
        if w not in self._weight_set and not self.missing_exact(w):
            return None
        return w

    # -- reporting -------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "name": self.name,
            "side": self.side,
            "dim": self.dim,
            "weights": {self.datum.weight_str(w): self.weight_dim(w)
                        for w in self.weights()},
            "exact": self.exact,
            "distinguished": {k: self.labels[v]
                              for k, v in self.distinguished.items()},
        }

    def __repr__(self) -> str:
        return f"WeightModule({self.name}, side={self.side}, dim={self.dim})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def deepening_kernel(algebra: UAlgebra, gamma: RootSum, i: int,
                     side: str = "left") -> Matrix:
    """The letter that deepens the drop, which does not depend on lam:
    f_i f^w on left modules, e^w e_i on right modules.  A matrix from the
    free words of drop gamma to those of gamma + alpha_i, read from
    ``GradedBasis.reduce_word``; memoized on the algebra."""
    key = ("deepen", tuple(gamma), i, side)
    return algebra.memo.get(key, lambda: _deepening_kernel(algebra, *key[1:]))


def _deepening_kernel(algebra: UAlgebra, gamma: RootSum, i: int,
                      side: str) -> Matrix:
    src = algebra.basis(gamma).free_words
    tgt = algebra.basis(tuple(a + b for a, b in
                              zip(gamma, algebra.datum.alpha_root(i))))
    out = linalg.zeros(tgt.dim, len(src), algebra.datum.l0)
    for col, w in enumerate(src):
        word = (i,) + w if side == "left" else w + (i,)
        for wb, c in tgt.reduce_word(word).items():
            out[tgt.free_pos[wb]][col] = c
    return out


def raising_kernel(algebra: UAlgebra, lam: Weight, gamma: RootSum, i: int,
                   side: str = "left") -> Matrix:
    """The letter that raises the drop, evaluated at lam: e_i f^w v_lam on
    left modules, v_lam e^w f_i on right modules.  A matrix from the free
    words of drop gamma to those of gamma - alpha_i (no rows when that is
    not a drop), by the commutator formula
    e_i f^w v_lam = sum_{k: w_k = i} [<mu_k, alpha_i^vee>]_{q_i} f^{w-k} v_lam:
    e_i passes each f_j, j != i, and meets each f_i as
    [e_i, f_i] = (k_i - k_i^-1)/(q_i - q_i^-1), which acts on the weight
    mu_k of the vector it meets; w-k is w without its k-th letter, reduced
    by ``GradedBasis.reduce_word``.  mu_k is lam less the roots of w[k+1:]
    on left modules and of w[:k] on right ones.  The word e_i f^w (or
    e^w f_i) is held to the algebra's height cap like any normal form.
    Memoized on the algebra."""
    key = ("raise", tuple(lam), tuple(gamma), i, side)
    return algebra.memo.get(key, lambda: _raising_kernel(algebra, *key[1:]))


def _raising_kernel(algebra: UAlgebra, lam: Weight, gamma: RootSum, i: int,
                    side: str) -> Matrix:
    datum = algebra.datum
    src = algebra.basis(gamma).free_words
    gm = tuple(a - b for a, b in zip(gamma, datum.alpha_root(i)))
    tgt = algebra.basis(gm) if all(c >= 0 for c in gm) else None
    out = linalg.zeros(0 if tgt is None else tgt.dim, len(src), datum.l0)
    for col, w in enumerate(src):
        algebra._check_cap(
            (("e", i),) + tuple(("f", j) for j in w) if side == "left"
            else tuple(("e", j) for j in w) + (("f", i),))
        for k, j in enumerate(w):
            if j != i:
                continue
            passed = w[k + 1:] if side == "left" else w[:k]
            mu = datum.weight_sub_root(lam, _content(passed, datum.rank))
            if mu[i] == 0:
                continue
            # [-n] = -[n]
            c = quantum_integer(abs(mu[i]), datum.d(i), datum.l0)
            if mu[i] < 0:
                c = -c
            for wb, x in tgt.reduce_word(w[:k] + w[k + 1:]).items():
                row = out[tgt.free_pos[wb]]
                row[col] = row[col] + c * x
    return out


_Block = Callable[[RootSum, int], Optional[Matrix]]


def _assemble(algebra: UAlgebra, lam: Weight, side: str,
              drops: Sequence[RootSum], dim: Callable[[RootSum], int],
              label: Callable[[RootSum, int, Weight], str], deepen: _Block,
              raising: _Block, missing_exact: Callable[[Weight], bool],
              exact: bool, name: str) -> WeightModule:
    """The one layout of a highest-weight module: dim(g) basis vectors of
    weight lam - g per drop g, in the order of drops, with ``mod.slot``
    (drop, r) -> index and its inverse ``mod.slot_keys``.  The generator
    matrices carry per-drop blocks: the deepening letter's from drop g to
    g + alpha_i, the raising letter's to g - alpha_i, each asked for only
    when its target drop is laid out."""
    datum = algebra.datum
    slot: Dict[Tuple[RootSum, int], int] = {}
    offset: Dict[RootSum, int] = {}
    index_weights: List[Weight] = []
    labels: List[str] = []
    for g in drops:
        offset[g] = len(index_weights)
        w = datum.weight_sub_root(lam, g)
        for r in range(dim(g)):
            slot[(g, r)] = len(index_weights)
            index_weights.append(w)
            labels.append(label(g, r, w))
    deepening_letter = "f" if side == "left" else "e"
    gen: Dict[Tuple[str, int], Matrix] = {}
    for i in range(datum.rank):
        ai = datum.alpha_root(i)
        for kind in ("f", "e"):
            sign, block = (1, deepen) if kind == deepening_letter \
                else (-1, raising)
            m = linalg.zeros(len(slot), len(slot), datum.l0)
            for g in drops:
                tgt = tuple(a + sign * b for a, b in zip(g, ai))
                b = block(g, i) if tgt in offset else None
                if b is not None:
                    linalg.set_block(m, offset[tgt], offset[g], b)
            gen[(kind, i)] = m
    mod = WeightModule(algebra, side, index_weights, gen, missing_exact,
                       exact=exact, labels=labels,
                       distinguished={"highest": 0}, name=name)
    mod.highest_weight = lam
    mod.slot = slot
    mod.slot_keys = list(slot)
    return mod


def verma(algebra: UAlgebra, lam: Weight, depth: RootSum,
          side: str = "left") -> WeightModule:
    """Verma module truncated to weight drops gamma <= depth componentwise,
    on the free words f^w v_lam (left) or v_lam e^w (right) of each drop."""
    depth = tuple(depth)
    return _truncated_verma(algebra, lam, side,
                            sorted(box(depth), key=by_height), str(depth))


def plus_part(algebra: UAlgebra, height: int) -> WeightModule:
    """The plus part up to ``height``: the right Verma module T_r(0) on
    the drops of height at most ``height``.  Its basis vector at slot
    (gamma, r) is the r-th free word of degree gamma, its e_i generator is
    right multiplication by e_i, and k_mu is the diagonal q^{-(mu, deg)}."""
    rank = algebra.datum.rank
    return _truncated_verma(
        algebra, algebra.datum.zero_weight, "right",
        sorted(box((height,) * rank, height=height), key=by_height),
        f"ht<={height}")


def _truncated_verma(algebra: UAlgebra, lam: Weight, side: str,
                     drops: Sequence[RootSum], cut: str) -> WeightModule:
    """The Verma module of highest weight lam on the given drops, on the
    free words f^w v_lam (left) or v_lam e^w (right) of each drop."""
    datum = algebra.datum
    lam = tuple(lam)

    def label(g: RootSum, r: int, w: Weight) -> str:
        tag = "".join(str(i + 1) for i in algebra.basis(g).free_words[r])
        return ("f" + tag if tag else "v") + "@" + datum.weight_str(w)

    def missing_exact(w: Weight) -> bool:
        # above the highest weight it is genuinely zero, below it is cut
        return datum.drop(lam, w) is None

    return _assemble(
        algebra, lam, side, drops, lambda g: algebra.basis(g).dim, label,
        lambda g, i: deepening_kernel(algebra, g, i, side),
        lambda g, i: raising_kernel(algebra, lam, g, i, side),
        missing_exact, exact=False,
        name=f"T{'r' if side == 'right' else ''}"
             f"({datum.weight_str(lam)})|{cut}")


class SimpleFactory:
    """Per-weight-space construction of the simple module V(lam).  Use
    ``simple_factory``: it keeps one factory per algebra and lam.  A weight
    space's dimension is read per drop (``multiplicity``); the full
    character and the list of drops are built only when asked for."""

    def __init__(self, algebra: UAlgebra, lam: Weight):
        datum = algebra.datum
        lam = tuple(lam)
        if not datum.is_dominant(lam):
            raise DominanceError(f"{lam} is not dominant")
        self.algebra = algebra
        self.datum = datum
        self.lam = lam
        self.memo = Memo()

    @property
    def char(self) -> CharacterPoly:
        """The Weyl character of V(lam), shared through the datum's memo."""
        return weyl_character(self.datum, self.lam)

    @property
    def drops(self) -> Dict[RootSum, int]:
        """Every drop of V(lam) with its multiplicity; do not mutate."""
        return self.memo.get("drops", lambda: {
            self.datum.drop(self.lam, w): m
            for w, m in self.char.terms.items()})

    def multiplicity(self, gamma: RootSum) -> int:
        """Dimension of the weight space at drop gamma (0 off V(lam))."""
        return weyl_multiplicity(self.datum, self.lam, gamma)

    def slice(self, gamma: RootSum) -> Optional[dict]:
        """Class data of the weight space at drop gamma, or None if zero.
        Memoized, so concurrent readers see one table."""
        gamma = tuple(gamma)
        if not self.multiplicity(gamma):
            return None
        return self.memo.get(("slice", gamma), lambda: self._slice(gamma))

    def _slice(self, gamma: RootSum) -> dict:
        words = self.algebra.basis(gamma).free_words
        gram = [self.gram_row(wa) for wa in words]
        ech, pivots = linalg.rref(gram)
        if len(pivots) != self.multiplicity(gamma):
            raise QflagError(
                f"contravariant-form rank {len(pivots)} at drop {gamma} "
                f"!= Weyl character dimension {self.multiplicity(gamma)}")
        # class coordinates of the b-th basis word = column b of the echelon
        reduce_cols = linalg.transpose(ech)
        return {
            "words": words,
            "pivots": pivots,          # representative word positions
            "reduce_cols": reduce_cols,
            # <v*_lam, e_wa f^{w_p} v_lam>: the slice basis vector r is the
            # class of the pivot word p = pivots[r], so the Gram on the
            # pivot columns is the slice's evaluation matrix
            "eval": [[row[p] for p in pivots] for row in gram],
        }

    def gram_row(self, word: Tuple[int, ...]) -> Vector:
        """Row of the contravariant Gram at drop deg(word): the top
        coefficient of the raising word e_word applied across the free
        words of that drop.  A free word's prefix is free, and the row of
        w.i is the row of w times ``raising_kernel(lam, deg(w.i), i)``;
        memoized per word."""
        if not word:
            return [self.datum.one()]
        return self.memo.get(("gram-row", word), lambda: self._gram_row(word))

    def _gram_row(self, word: Tuple[int, ...]) -> Vector:
        row = self.gram_row(word[:-1])
        step = raising_kernel(self.algebra, self.lam,
                              _content(word, self.datum.rank), word[-1])
        return [linalg.row_dot(row, col) for col in zip(*step)]

    def reduce_uminus(self, gamma: RootSum,
                      coords: Dict[Tuple[int, ...], QScalar]) -> Optional[Vector]:
        """Class coordinates of a U^-_{-gamma} element given in free-word
        coordinates; None when the weight space is zero."""
        data = self.slice(gamma)
        if data is None:
            return None
        pos = self.algebra.basis(gamma).free_pos
        out = [self.datum.zero()] * len(data["pivots"])
        for w, c in coords.items():
            col = data["reduce_cols"][pos[w]]
            for r, x in enumerate(col):
                if not x.is_zero():
                    out[r] = out[r] + c * x
        return out

    def slice_dim(self, gamma: RootSum) -> int:
        data = self.slice(gamma)
        return 0 if data is None else len(data["pivots"])

    def f_step(self, gamma: RootSum, i: int) -> Optional[Matrix]:
        """Matrix of f_i from the drop-gamma slice to drop gamma+alpha_i."""
        key = ("f", tuple(gamma), i)
        return self.memo.get(key, lambda: self._step(*key))

    def e_step(self, gamma: RootSum, i: int) -> Optional[Matrix]:
        """Matrix of e_i from the drop-gamma slice to drop gamma-alpha_i."""
        key = ("e", tuple(gamma), i)
        return self.memo.get(key, lambda: self._step(*key))

    def _step(self, kind: str, gamma: RootSum, i: int) -> Optional[Matrix]:
        # one formula for both letters: the free-word kernel (deepening
        # f_i, or raising e_i at lam) carries each pivot word of the slice
        # to free words of the target drop; reduce_uminus takes those to
        # classes
        sign = 1 if kind == "f" else -1
        tgt = tuple(a + sign * b
                    for a, b in zip(gamma, self.datum.alpha_root(i)))
        src = self.slice(gamma)
        if src is None or not self.multiplicity(tgt):
            return None
        kernel = deepening_kernel(self.algebra, gamma, i) if kind == "f" \
            else raising_kernel(self.algebra, self.lam, gamma, i)
        words = self.algebra.basis(tgt).free_words
        cols = [self.reduce_uminus(tgt, {w: row[p]
                                         for w, row in zip(words, kernel)
                                         if not row[p].is_zero()})
                for p in src["pivots"]]
        return linalg.transpose(cols)

    def apply_word(self, gamma: RootSum, vec: Vector, kind: str,
                   word: Tuple[int, ...]) -> Optional[Tuple[RootSum, Vector]]:
        """Apply the letters of ``word`` of ``kind`` "e" or "f" (innermost
        letter first) to a drop-gamma slice vector: (drop, vector), or None
        once a step leaves the module."""
        sign = 1 if kind == "f" else -1
        g = tuple(gamma)
        v = list(vec)
        for i in reversed(word):
            m = self.f_step(g, i) if kind == "f" else self.e_step(g, i)
            if m is None:
                return None
            ai = self.datum.alpha_root(i)
            g = tuple(a + sign * b for a, b in zip(g, ai))
            v = linalg.mat_vec(m, v)
        return g, v

    def build(self) -> WeightModule:
        """The full module V(lam), built once per factory."""
        return self.memo.get("module", self._build)

    def _build(self) -> WeightModule:
        datum = self.datum
        # every weight space is built: an absent weight is genuinely zero
        mod = _assemble(
            self.algebra, self.lam, "left", sorted(self.drops, key=by_height),
            self.slice_dim, lambda _g, r, w: f"v{datum.weight_str(w)}#{r}",
            self.f_step, self.e_step, lambda _w: True, exact=True,
            name=f"V({datum.weight_str(self.lam)})")
        mod.factory = self
        return mod


def simple_factory(algebra: UAlgebra, lam: Weight) -> SimpleFactory:
    """The one factory of V(lam) on this algebra (memoized on it)."""
    lam = tuple(lam)
    return algebra.memo.get(("simple", lam),
                            lambda: SimpleFactory(algebra, lam))


def simple(algebra: UAlgebra, lam: Weight) -> WeightModule:
    """The simple module V(lam): one module per algebra and lam, shared by
    every caller (the coordinate ring's graded pieces included), so callers
    must not mutate it."""
    return simple_factory(algebra, lam).build()


def restricted_dual(mod: WeightModule) -> WeightModule:
    """The graded dual on the opposite side, with the pairing convention
    <v* h, v> = <v*, h v> (and its mirror for right modules)."""
    gen = {key: linalg.transpose(m) for key, m in mod.gen.items()}
    side = "right" if mod.side == "left" else "left"
    dual = WeightModule(mod.algebra, side, list(mod.index_weights), gen,
                        mod.missing_exact, exact=mod.exact,
                        labels=[lb + "*" for lb in mod.labels],
                        distinguished=dict(mod.distinguished),
                        name=mod.name + "*")
    if hasattr(mod, "highest_weight"):
        dual.highest_weight = mod.highest_weight
    return dual


def tensor(m1: WeightModule, m2: WeightModule) -> WeightModule:
    """Tensor product with the coproduct twist: Delta(e_i) = e_i (x) 1 +
    k_i (x) e_i and Delta(f_i) = f_i (x) k_i^-1 + 1 (x) f_i, with the k
    factors read as the diagonals q^(alpha_i, wt).  Memoized on m1 per
    partner module, so every operator on one pair shares the carrier (and
    the braids memoized on it); callers must not mutate it."""
    if m1.side != m2.side:
        raise SideMismatchError("tensor factors must share a side")
    return m1.memo.get(("tensor", m2), lambda: _tensor(m1, m2))


def _tensor(m1: WeightModule, m2: WeightModule) -> WeightModule:
    alg = m1.algebra
    datum = alg.datum
    n1, n2 = m1.dim, m2.dim
    index_weights = []
    labels = []
    for a in range(n1):
        for b in range(n2):
            index_weights.append(datum.weight_add(m1.index_weights[a],
                                                  m2.index_weights[b]))
            labels.append(f"{m1.labels[a]}(x){m2.labels[b]}")
    gen: Dict[Tuple[str, int], Matrix] = {}
    for i in range(datum.rank):
        a = datum.alpha(i)
        k1 = [datum.q_pair(a, w) for w in m1.index_weights]
        k2inv = [datum.q_pair(tuple(-x for x in a), w)
                 for w in m2.index_weights]
        # same formula on either side: for right modules the gen matrices
        # already encode right actions and Delta applies legwise
        gen[("e", i)] = _coproduct_matrix(m1.gen[("e", i)], None,
                                          k1, m2.gen[("e", i)], datum.l0)
        gen[("f", i)] = _coproduct_matrix(m1.gen[("f", i)], k2inv,
                                          None, m2.gen[("f", i)], datum.l0)

    # a missing weight is genuinely zero when both factors are exact
    exact = m1.exact and m2.exact
    return WeightModule(alg, m1.side, index_weights, gen, lambda _w: exact,
                        exact=exact, labels=labels,
                        name=f"({m1.name})(x)({m2.name})")


def _coproduct_matrix(x1: Matrix, d2: Optional[List[QScalar]],
                      d1: Optional[List[QScalar]], x2: Matrix,
                      l0: int) -> Matrix:
    """x1 (x) diag(d2) + diag(d1) (x) x2 on the basis v_a (x) w_b at index
    a*n2 + b, written cell by cell from the nonzero cells of x1 and x2; a
    diagonal given as None is the identity."""
    n1, n2 = len(x1), len(x2)
    out = linalg.zeros(n1 * n2, n1 * n2, l0)
    for a, row in enumerate(x1):
        for c, x in enumerate(row):
            if x.is_zero():
                continue
            for b in range(n2):
                out[a * n2 + b][c * n2 + b] = x if d2 is None else x * d2[b]
    for a in range(n1):
        for b, row in enumerate(x2):
            orow = out[a * n2 + b]
            for d, y in enumerate(row):
                if y.is_zero():
                    continue
                col = a * n2 + d
                orow[col] = orow[col] + (y if d1 is None else d1[a] * y)
    return out


# ---------------------------------------------------------------------------
# braid operators on modules
# ---------------------------------------------------------------------------

def _exp_matrix(m: Matrix, t_scale: int, l0: int) -> Matrix:
    """exp_t of a nilpotent matrix, with t = q**t_scale; terminates by
    nilpotence."""
    dim = len(m)
    out = linalg.identity(dim, l0)
    power = m   # m**n; only read, so m itself is never written to
    n = 1
    while not linalg.is_zero_matrix(power):
        if n > dim + 2:
            raise TruncationError("exponential series does not terminate; "
                                  "the matrix is not nilpotent")
        linalg.add_scaled(out, power, exp_t_coefficient(n, t_scale, l0))
        n += 1
        power = linalg.mat_mul(m, power)
    return out


def braid_on_module(mod: WeightModule, i: int,
                    inverse: bool = False) -> Matrix:
    """The braid operator T_i (or T_i^-1) on a finite-dimensional exact
    left module, by Lusztig's closed formula (``_braid_operator``), so no
    matrix is multiplied, exponentiated or inverted.  Memoized on the
    module per i and direction."""
    if not mod.exact:
        raise TruncationError("braid operators require an exact module")
    if mod.side != "left":
        raise SideMismatchError("braid_on_module acts on left modules; use "
                                "transpose_braid for right modules")
    return mod.memo.get(("braid", i, inverse),
                        lambda: _braid_operator(mod, i, inverse))


def _braid_operator(mod: WeightModule, i: int, inverse: bool) -> Matrix:
    """T_i or T_i^-1 on ``mod``, one basis vector at a time.  For v of
    weight lam and n = lam[i] = <lam, alpha_i^vee>,

        T_i v    = sum_a (-1)^a q_i^b e^(a) f^(b) v,   b = a + n >= 0,
        T_i^-1 v = sum_a (-1)^a q_i^-b f^(a) e^(b) v,  b = a - n >= 0,

    with x^(k) = x^k / [k]_i! the divided powers of e_i and f_i.  These
    are Lusztig's T'_{i,1} and T''_{i,-1} (*Introduction to Quantum
    Groups*, 5.2.1), each times (-1)^n, with their third index c set to 0:
    there T_i v sums (-1)^(a+c) q_i^(b-ac) e^(a) f^(b) e^(c) v over
    b = a + c + n, and on a finite-dimensional module the terms with
    c >= 1 cancel.  (For v = f^(k) v_0 in V(m), the a-sum at c is one
    vector times sum_a (-1)^a q_i^(a(1-c)) [k, a]_i [a+m-k, k-c]_i, and
    sum_a (-1)^a [k, a]_i q_i^(a(1-k+2j)) = 0 for 0 <= j < k.)  The outer
    letter x is applied by Horner's rule, W_0 + (x/[1])(W_1 + (x/[2])(W_2
    + ...)) with W_a = (-1)^a q_i^(+-b) y^(b) v, each letter walked
    through the nonzero cells of its generator (``WeightModule.walk``): no
    matrix is multiplied, exponentiated or inverted."""
    datum = mod.datum
    l0 = datum.l0
    di = datum.d(i)
    x, y = (("f", i), ("e", i)) if inverse else (("e", i), ("f", i))
    t = -di if inverse else di     # T_i^-1 negates n and the q_i exponent
    inv_int: List[QScalar] = [datum.one()]    # 1/[k]_i by k

    def divided(letter, vec: Dict[int, QScalar], k: int) -> Dict[int, QScalar]:
        # the k-th divided power of the letter on v from the (k-1)-th: one
        # step of the letter, then 1/[k]_i
        while len(inv_int) <= k:
            inv_int.append(quantum_integer(len(inv_int), di, l0).inverse())
        c = inv_int[k]
        return {r: z * c for r, z in mod.walk((letter,), vec).items()
                if z.num}

    res = linalg.zeros(mod.dim, mod.dim, l0)
    for col, w in enumerate(mod.index_weights):
        n = -w[i] if inverse else w[i]
        # ypow[b] = y^(b) v, up to the last nonzero one
        ypow = [{col: datum.one()}]
        while ypow[-1]:
            if len(ypow) > mod.dim + 2:
                raise TruncationError("divided powers do not vanish; the "
                                      "module is not nilpotent")
            ypow.append(divided(y, ypow[-1], len(ypow)))
        acc: Dict[int, QScalar] = {}
        for a in range(len(ypow) - 2 - n, -1, -1):
            acc = divided(x, acc, a + 1)
            b = a + n
            if b >= 0:
                coeff = _lusztig_coefficient(a, b, t, l0)
                for r, z in ypow[b].items():
                    z = coeff * z
                    acc[r] = acc[r] + z if r in acc else z
        for r, z in acc.items():
            res[r][col] = z
    return res


def _lusztig_coefficient(a: int, b: int, t: int, l0: int) -> QScalar:
    """(-1)^a q^(t b), the coefficient of x^(a) y^(b) v in T_i^+-1 v, with
    t = d_i for T_i and -d_i for T_i^-1."""
    out = QScalar.q_l0(t * b * l0, l0)
    return -out if a % 2 else out


def braid_word(mod: WeightModule, word: Sequence[int],
               inverse: bool = False) -> Matrix:
    """T_w along the canonical reduced word of w."""
    red = mod.datum.weyl_canonical(word)
    # T_w = T_{i1} ... T_{in}: rightmost factor acts first
    return linalg.ordered_product(
        (braid_on_module(mod, i, inverse=inverse)
         for i in (reversed(red) if inverse else red)),
        mod.dim, mod.datum.l0)


def transpose_braid(mod: WeightModule, word: Sequence[int],
                    inverse: bool = False) -> Matrix:
    """The operator on a right module V defined by pairing against T_w on
    the dual left module: <tT_w(v), v*> = <v, T_w(v*)>."""
    if mod.side != "right":
        raise SideMismatchError("transpose_braid acts on right modules")
    # left module with the transposed matrices, kept so that its braid memo
    # serves later calls
    dual = mod.memo.get("dual", lambda: restricted_dual(mod))
    return linalg.transpose(braid_word(dual, word, inverse=inverse))


# ---------------------------------------------------------------------------
# relation checking
# ---------------------------------------------------------------------------

def defining_relations(algebra: UAlgebra):
    """The defining relations as lists of (coefficient, raw word) pairs
    summing to zero, keeping the monomial paths for validity tests."""
    datum = algebra.datum
    rels = []
    one = datum.one()
    for lam, mu in [(datum.fundamental(0), datum.fundamental(datum.rank - 1)),
                    (datum.alpha(0), datum.rho)]:
        rels.append((f"k{lam}k{mu}=k(sum)", [
            (one, (("k", lam), ("k", mu))),
            (-one, (("k", datum.weight_add(lam, mu)),)),
        ]))
    for i in range(datum.rank):
        ai = datum.alpha(i)
        for lam in [datum.fundamental(j) for j in range(datum.rank)]:
            rels.append((f"k{lam}e{i}", [
                (one, (("k", lam), ("e", i))),
                (-datum.q_pair(lam, ai), (("e", i), ("k", lam))),
            ]))
            rels.append((f"k{lam}f{i}", [
                (one, (("k", lam), ("f", i))),
                (-datum.q_pair(tuple(-x for x in lam), ai),
                 (("f", i), ("k", lam))),
            ]))
        for j in range(datum.rank):
            terms = [(one, (("e", i), ("f", j))),
                     (-one, (("f", j), ("e", i)))]
            if i == j:
                c = (algebra.qi(i) - algebra.qi(i, -1)).inverse()
                terms.append((-c, (("k", ai),)))
                terms.append((c, (("k", tuple(-x for x in ai)),)))
            rels.append((f"[e{i},f{j}]", terms))
            if i != j:
                words, coeffs = algebra.serre_elements()[(i, j)]
                rels.append((f"serreE({i},{j})",
                             [(c, tuple(("e", l) for l in w))
                              for w, c in zip(words, coeffs)]))
                rels.append((f"serreF({i},{j})",
                             [(c, tuple(("f", l) for l in w))
                              for w, c in zip(words, coeffs)]))
    return rels


# A term of a relation grouped by its k-free core: (non-unit part of the
# coefficient or None, sign, exponent in units of 1/l0, k weight on the
# column, k weight on the row), a k weight None when that end has no k.
_CoreTerm = Tuple[Optional[QScalar], int, int, Optional[Weight],
                  Optional[Weight]]


def _relation_cores(algebra: UAlgebra, side: str):
    """``defining_relations`` with each relation's terms grouped by core
    (``_core_groups``) for modules on ``side``: (name, groups) pairs,
    memoized on the algebra, as they depend on nothing else."""
    return algebra.memo.get(("relation-cores", side), lambda: [
        (name, _core_groups(algebra.datum, side, terms))
        for name, terms in defining_relations(algebra)])


def _core_groups(datum, side: str,
                 terms) -> List[Tuple[tuple, List[_CoreTerm]]]:
    """The terms of a relation grouped by core, in order of first
    appearance.  A raw word is split into its k letters before its first
    e/f letter, the core from there to its last e/f letter, and the k
    letters after it; of the two k ends, the one applied first acts on the
    column and the other on the row.  A coefficient is held as its unit
    sign*q^exp times a non-unit part whose numerator has lowest exponent 0
    and a positive lowest coefficient (None when the coefficient is a unit),
    so c and -c share one part."""

    def k_sum(letters) -> Optional[Weight]:
        out = None
        for _k, mu in letters:
            out = mu if out is None else datum.weight_add(out, mu)
        return out

    groups: Dict[tuple, List[_CoreTerm]] = {}
    for c, word in terms:
        letters = [n for n, (kind, _v) in enumerate(word) if kind != "k"]
        lo, hi = (letters[0], letters[-1] + 1) if letters else (0, 0)
        head, tail = k_sum(word[:lo]), k_sum(word[hi:])
        col_mu, row_mu = (tail, head) if side == "left" else (head, tail)
        exp = min(c.num)
        sign = 1 if c.num[exp] > 0 else -1
        part = None
        if not (c.is_polynomial() and len(c.num) == 1 and c.num[exp] == sign):
            part = c * QScalar.q_l0(-exp, datum.l0)
            part = part if sign > 0 else -part
        groups.setdefault(word[lo:hi], []).append(
            (part, sign, exp, col_mu, row_mu))
    return list(groups.items())


def _core_factor(core_terms, row: int, col: int,
                 l0: int) -> Optional[QScalar]:
    """The sum over a group's terms of coefficient times the k letters at
    the word's ends, read as q^(mu, wt) on the column's and the row's
    weights (given by weight id, the k weights of ``_core_groups`` turned
    into tables of l0*(mu, wt) by weight id): one integer Laurent
    polynomial per non-unit part, multiplied by that part only where it is
    nonzero.  None when the sum is zero."""
    polys: Dict[Optional[QScalar], Dict[int, int]] = {}
    for part, sign, e, col_pairs, row_pairs in core_terms:
        if col_pairs is not None:
            e += col_pairs[col]
        if row_pairs is not None:
            e += row_pairs[row]
        p = polys.setdefault(part, {})
        p[e] = p.get(e, 0) + sign
    out = None
    for part, p in polys.items():
        p = {e: x for e, x in p.items() if x}
        if not p:
            continue
        y = QScalar.from_poly(p, l0)
        if part is not None:
            y = part * y
        out = y if out is None else out + y
    return out if out is not None and out.num else None


def check_module_relations(mod: WeightModule) -> List[str]:
    """Verify the defining relations on the exact region of the module,
    one basis column at a time.  Each relation's terms are grouped by the
    k-free core of their words (``_core_groups``, memoized on the algebra
    per side by ``_relation_cores``), and each core is walked
    once per column from e_col (``WeightModule.walk``): its last applied
    letter from the walk of the letters before it, so relations share the
    walks of common cores and prefixes.  The k letters at a word's ends and
    a unit coefficient +-q^e are read as exponents of the column's and the
    row's weights, so a group's factor at (row, col) is an integer Laurent
    polynomial, times a non-unit coefficient only where it is nonzero
    (``_core_factor``); scalar arithmetic is left for the e/f cells and
    those products.  A relation is checked only at weights where every
    core's path stays in the exact region (k letters never leave it), each
    (weight, core) decided once.  Every other table is local to the
    call.
    Returns a list of failure descriptions, at the first nonzero row of
    each failing column."""
    datum = mod.datum
    one = datum.one()
    left = mod.side == "left"
    wid: Dict[Weight, int] = {}
    ids = [wid.setdefault(w, len(wid)) for w in mod.index_weights]
    pair_rows: Dict[Weight, List[int]] = {}

    def pairs(mu: Optional[Weight]) -> Optional[List[int]]:
        # l0*(mu, wt) by weight id
        if mu is not None and mu not in pair_rows:
            pair_rows[mu] = [datum.pair_l0(mu, w) for w in wid]
        return None if mu is None else pair_rows[mu]

    # every core and each of its prefixes in applied order by id, with the
    # id of the letters applied before its last one and that last letter;
    # id 0 is the empty core, and a prefix's id is below its core's
    core_ids: Dict[tuple, int] = {(): 0}
    before: List[int] = [0]
    last: List[tuple] = [()]
    rels = []
    for name, cores in _relation_cores(mod.algebra, mod.side):
        groups = []
        for core, core_terms in cores:
            n = len(core)
            for pre in ([core[k:] for k in range(n - 1, -1, -1)] if left
                        else [core[:k] for k in range(1, n + 1)]):
                if pre not in core_ids:
                    core_ids[pre] = len(last)
                    before.append(core_ids[pre[1:] if left else pre[:-1]])
                    last.append(pre[:1] if left else pre[-1:])
            # a group with no k letter has one factor at every cell
            fixed = all(t[3] is None and t[4] is None for t in core_terms)
            groups.append((core_ids[core], fixed, [
                (part, sign, e, pairs(col_mu), pairs(row_mu))
                for part, sign, e, col_mu, row_mu in core_terms]))
        rels.append((name, groups))

    # the weight each core takes each module weight (by id) to, None once
    # its path passes through a truncated-away weight space
    steps: Dict[tuple, Optional[Weight]] = {}
    reach: List[List[Optional[Weight]]] = [list(wid)]
    for c in range(1, len(last)):
        out = []
        for w in reach[before[c]]:
            if w is not None:
                key = (w, last[c][0])
                if key not in steps:
                    steps[key] = mod.step(*key)
                w = steps[key]
            out.append(w)
        reach.append(out)
    valid = []
    for _name, groups in rels:
        ok = [True] * len(wid)
        for c, _f, _t in groups:
            for k, w in enumerate(reach[c]):
                if w is None:
                    ok[k] = False
        valid.append(ok)

    def walked(walks: List[Optional[Dict[int, QScalar]]], c: int,
               col: int) -> Dict[int, QScalar]:
        # core c walked from e_col, each letter from the walk of the letters
        # before it; a first e/f letter is read off the column's cells
        chain = []
        while c and walks[c] is None:
            chain.append(c)
            c = before[c]
        vec = walks[c] if c else {col: one}
        for c in reversed(chain):
            vec = walks[c] = mod.walk(last[c], vec) if before[c] \
                else dict(mod._cells(*last[c][0])[col])
        return vec

    factors: List[Dict[tuple, Dict[int, Optional[QScalar]]]] = \
        [{} for _ in rels]
    failures: List[List[str]] = [[] for _ in rels]
    # column by column, so only one column's walks are held at a time
    for col in range(mod.dim):
        walks: List[Optional[Dict[int, QScalar]]] = [None] * len(last)
        for (name, groups), ok, rel_factors, fails in zip(rels, valid, factors,
                                                         failures):
            if not ok[ids[col]]:
                continue
            acc: Dict[int, QScalar] = {}
            for g, (c, fixed, core_terms) in enumerate(groups):
                # the group's factors at this column's weight, by row weight
                row_f = rel_factors.setdefault(
                    (g, 0 if fixed else ids[col]), {})
                for r, x in walked(walks, c, col).items():
                    k = 0 if fixed else ids[r]
                    if k not in row_f:
                        row_f[k] = _core_factor(core_terms, k, ids[col],
                                                datum.l0)
                    f = row_f[k]
                    if f is not None:
                        y = x * f
                        acc[r] = acc[r] + y if r in acc else y
            bad = [r for r, x in sorted(acc.items()) if x.num]
            if bad:
                fails.append(
                    f"{mod.name}: relation {name} fails at basis {mod.labels[col]}"
                    f" -> {mod.labels[bad[0]]}: {acc[bad[0]].to_str()}")
    return [f for fails in failures for f in fails]


def module_map_commutes(source: WeightModule, target: WeightModule,
                        matrix: Matrix) -> bool:
    """Check that a linear map M intertwines all generator actions.  Each
    k_lam is diagonal, so M k_lam = k_lam M for every fundamental lam
    exactly when each nonzero cell of M joins two basis vectors of equal
    weight (the form is nondegenerate).  M e_i = e_i M and M f_i = f_i M
    are compared column by column from the nonzero cells of M and of the
    generators, with no product formed."""
    zero = source.datum.zero()
    cols: List[List[Tuple[int, QScalar]]] = [[] for _ in range(source.dim)]
    for r, row in enumerate(matrix):
        for c, x in enumerate(row):
            if x.num:
                if target.index_weights[r] != source.index_weights[c]:
                    return False
                cols[c].append((r, x))
    for key in [(kind, i) for kind in "ef" for i in range(source.datum.rank)]:
        gs, gt = source._cells(*key), target._cells(*key)
        for c in range(source.dim):
            lhs, rhs = _image(cols, gs[c]), _image(gt, cols[c])
            if any(lhs.get(r, zero) != rhs.get(r, zero)
                   for r in lhs.keys() | rhs.keys()):
                return False
    return True


def _image(cols: List[List[Tuple[int, QScalar]]],
           vec) -> Dict[int, QScalar]:
    """sum_k x cols[k] over the cells (k, x) of vec, as {row: value}, with
    cols a matrix's nonzero cells by column."""
    out: Dict[int, QScalar] = {}
    for k, x in vec:
        for r, y in cols[k]:
            z = y * x
            out[r] = out[r] + z if r in out else z
    return out
