"""Root systems of finite type (rank <= 2 presets, extensible by Cartan
matrix), the weight lattice, the Weyl group, and formal characters.

Weights are integer tuples in the fundamental-weight basis, root sums are
nonnegative integer tuples in the simple-root basis.  The bilinear form is
normalized so short simple roots have squared length 2; the root-of-q
denominator l0 is the minimal positive integer clearing all (Lambda,Lambda)
pairings.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DominanceError, ParseError, QflagError
from .memo import Memo
from .scalars import QScalar

Weight = Tuple[int, ...]     # fundamental-weight coordinates
RootSum = Tuple[int, ...]    # simple-root coordinates, >= 0 entrywise
WeylWord = Tuple[int, ...]   # simple-reflection indices, 0-based

_PRESETS: Dict[str, Tuple[Tuple[Tuple[int, ...], ...]]] = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
}

DEFAULT_MAX_HEIGHT = 8


def max_height_in_force() -> int:
    """The height cap a datum built now gets: ``QFLAG_MAX_HEIGHT`` or the
    default."""
    raw = os.environ.get("QFLAG_MAX_HEIGHT")
    if raw is None:
        return DEFAULT_MAX_HEIGHT
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(
            f"QFLAG_MAX_HEIGHT must be a positive integer, got {raw!r}")
    return value


def box(hi: Sequence[int], lo: Optional[Sequence[int]] = None,
        height: Optional[int] = None) -> List[Tuple[int, ...]]:
    """The integer points g with lo <= g <= hi coordinatewise (lo defaults
    to 0) and, when ``height`` is given, sum(g) <= height; in
    ``itertools.product`` order (lexicographic)."""
    if lo is None:
        lo = (0,) * len(hi)
    points = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    if height is None:
        return list(points)
    return [g for g in points if sum(g) <= height]


def within(window: Sequence[int], *grades: Sequence[int]) -> bool:
    """Whether the sum of ``grades`` lies in ``box(window)``."""
    return all(sum(g) <= w for w, *g in zip(window, *grades))


def by_height(g: Sequence[int]):
    """Sort key: by height sum(g), then lexicographically."""
    return (sum(g), g)


class CartanDatum:
    """A finite-type Cartan matrix with symmetrizers, bilinear form and l0."""

    def __init__(self, cartan_matrix: Sequence[Sequence[int]],
                 name: str = "custom", max_height: Optional[int] = None):
        a = tuple(tuple(int(x) for x in row) for row in cartan_matrix)
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if i != j and (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValueError("matrix not symmetrizable")
        self.name = name
        self.rank = n
        self.cartan = a
        self.symmetrizers = _minimal_symmetrizers(a)
        self._check_finite_type()
        # (omega_i, omega_j) = inv[j][i] d_j; l0 clears all of them, and
        # the form is kept as the integer table l0 (omega_i, omega_j)
        inv = _rational_inverse(a)
        omega_pair = [[inv[j][i] * self.symmetrizers[j] for j in range(n)]
                      for i in range(n)]
        self.l0 = lcm(*(x.denominator for row in omega_pair for x in row))
        self._omega_l0 = tuple(tuple(int(x * self.l0) for x in row)
                               for row in omega_pair)
        # integer adjugate A^-1 * det(A): root coordinates of a weight w
        # are adj(A) w / det(A)
        self._det = int(_det(a))
        self._adj = tuple(tuple(int(x * self._det) for x in row)
                          for row in inv)
        self.max_height = max_height if max_height is not None else max_height_in_force()
        self.memo = Memo()
        # no code mutates a scalar, so every caller shares these two
        self._zero, self._one = QScalar.zero(self.l0), QScalar.one(self.l0)

    # -- element constructors -------------------------------------------------

    def weight(self, *coords: int) -> Weight:
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ValueError("wrong number of weight coordinates")
        return tuple(int(c) for c in coords)

    def root_sum(self, *coords: int) -> RootSum:
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.rank:
            raise ValueError("wrong number of root coordinates")
        out = tuple(int(c) for c in coords)
        if any(c < 0 for c in out):
            raise ValueError("root sums have nonnegative coordinates")
        return out

    @property
    def zero_weight(self) -> Weight:
        return (0,) * self.rank

    @property
    def zero_root(self) -> RootSum:
        return (0,) * self.rank

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    def fundamental(self, i: int) -> Weight:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def alpha(self, i: int) -> Weight:
        """Simple root alpha_i in fundamental-weight coordinates."""
        return tuple(self.cartan[j][i] for j in range(self.rank))

    def alpha_root(self, i: int) -> RootSum:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def root_to_weight(self, gamma: Sequence[int]) -> Weight:
        return tuple(sum(self.cartan[j][i] * gamma[i] for i in range(self.rank))
                     for j in range(self.rank))

    def weight_to_root(self, w: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """Simple-root coordinates of a weight in the root lattice; None
        otherwise.  Coordinates may be negative."""
        out = []
        for row in self._adj:
            c, r = divmod(sum(a * b for a, b in zip(row, w)), self._det)
            if r:
                return None
            out.append(c)
        return tuple(out)

    def drop(self, hi: Sequence[int], lo: Sequence[int]) -> Optional[RootSum]:
        """Root coordinates of hi - lo when they lie in Q^+ (lo is hi less
        a sum of positive roots); None otherwise."""
        g = self.weight_to_root(self.weight_sub(hi, lo))
        if g is None or any(c < 0 for c in g):
            return None
        return g

    def weight_sub_root(self, lam: Weight, gamma: Sequence[int]) -> Weight:
        g = self.root_to_weight(gamma)
        return tuple(a - b for a, b in zip(lam, g))

    def weight_add(self, a: Weight, b: Weight) -> Weight:
        return tuple(x + y for x, y in zip(a, b))

    def weight_sub(self, a: Weight, b: Weight) -> Weight:
        return tuple(x - y for x, y in zip(a, b))

    def weight_neg(self, a: Weight) -> Weight:
        return tuple(-x for x in a)

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    # -- bilinear form -----------------------------------------------------

    def pair_l0(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        """The integer l0 * (lam, mu) for weights in fundamental coordinates."""
        return sum(a * sum(b * x for b, x in zip(mu, row))
                   for a, row in zip(lam, self._omega_l0) if a)

    def pair_ww(self, lam: Sequence[int], mu: Sequence[int]) -> Fraction:
        """(lam, mu) for two weights in fundamental coordinates."""
        return Fraction(self.pair_l0(lam, mu), self.l0)

    def d(self, i: int) -> int:
        return self.symmetrizers[i]

    def q_power(self, exp) -> QScalar:
        return QScalar.q_power(exp, self.l0)

    def q_pair(self, lam: Sequence[int], mu: Sequence[int]) -> QScalar:
        """q**(lam,mu) for weights in fundamental coordinates."""
        return QScalar.q_l0(self.pair_l0(lam, mu), self.l0)

    def one(self) -> QScalar:
        return self._one

    def zero(self) -> QScalar:
        return self._zero

    def scalar(self, n: int) -> QScalar:
        return QScalar.integer(n, self.l0)

    # -- Weyl group ------------------------------------------------------------

    def _simple_reflection_matrix(self, i: int) -> Tuple[Tuple[int, ...], ...]:
        n = self.rank
        alpha_i = self.alpha(i)
        rows = []
        for j in range(n):
            row = [1 if j == k else 0 for k in range(n)]
            # s_i(omega_k) = omega_k - delta_{ik} alpha_i
            row = [row[k] - (alpha_i[j] if k == i else 0) for k in range(n)]
            rows.append(tuple(row))
        return tuple(rows)

    def reflect(self, i: int, lam: Sequence[int]) -> Weight:
        alpha_i = self.alpha(i)
        c = lam[i]
        return tuple(x - c * a for x, a in zip(lam, alpha_i))

    def weyl_act(self, word: Sequence[int], lam: Sequence[int],
                 shifted: bool = False) -> Weight:
        """Apply w = s_{i1}...s_{ik} to lam; shifted uses w(lam+rho)-rho."""
        v = tuple(lam)
        if shifted:
            v = self.weight_add(v, self.rho)
        for i in reversed(list(word)):
            v = self.reflect(i, v)
        if shifted:
            v = self.weight_sub(v, self.rho)
        return v

    def weyl_elements(self) -> Dict[Tuple[Tuple[int, ...], ...], WeylWord]:
        """Matrix (on weight coords) -> canonical reduced word, via BFS."""
        return self.memo.get("weyl", self._weyl_bfs)

    def _weyl_bfs(self) -> Dict[Tuple[Tuple[int, ...], ...], WeylWord]:
        n = self.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        out: Dict[Tuple[Tuple[int, ...], ...], WeylWord] = {ident: ()}
        frontier = [ident]
        gens = [self._simple_reflection_matrix(i) for i in range(n)]
        while frontier:
            nxt = []
            for m in frontier:
                w = out[m]
                for i in range(n):
                    # right multiply: (w s_i) acts by m @ s_i
                    prod = tuple(
                        tuple(sum(m[r][k] * gens[i][k][c] for k in range(n))
                              for c in range(n))
                        for r in range(n))
                    if prod not in out:
                        out[prod] = w + (i,)
                        nxt.append(prod)
            frontier = nxt
            if len(out) > 10000:
                raise QflagError("Weyl group too large; not finite type?")
        return out

    def weyl_canonical(self, word: Sequence[int]) -> WeylWord:
        """Canonical reduced word of the element represented by ``word``."""
        m = self._word_matrix(word)
        return self.weyl_elements()[m]

    def _word_matrix(self, word: Sequence[int]):
        n = self.rank
        m = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        gens = [self._simple_reflection_matrix(i) for i in range(n)]
        for i in word:
            g = gens[i]
            m = tuple(tuple(sum(m[r][k] * g[k][c] for k in range(n))
                            for c in range(n)) for r in range(n))
        return m

    def weyl_length(self, word: Sequence[int]) -> int:
        return len(self.weyl_canonical(word))

    def longest_word(self) -> WeylWord:
        elems = self.weyl_elements()
        return max(elems.values(), key=lambda w: (len(w), w))

    def all_weyl_words(self) -> List[WeylWord]:
        return sorted(self.weyl_elements().values(), key=lambda w: (len(w), w))

    def weyl_det(self, word: Sequence[int]) -> int:
        return -1 if self.weyl_length(word) % 2 else 1

    def linked(self, a: Sequence[int], b: Sequence[int]) -> Optional[WeylWord]:
        """The first Weyl word w (by length, then lexicographically) with
        w(a + rho) - rho = b, or None."""
        b = tuple(b)
        for word in self.all_weyl_words():
            if self.weyl_act(word, a, shifted=True) == b:
                return word
        return None

    def lowest_drop(self, lam: Sequence[int]) -> RootSum:
        """Root coordinates of lam - w0 lam, the drop from the highest to
        the lowest weight of V(lam) when lam is dominant."""
        return self.drop(lam, self.weyl_act(self.longest_word(), lam))

    # -- roots -------------------------------------------------------------

    def positive_roots(self) -> List[RootSum]:
        """All positive roots in simple-root coordinates, sorted by height."""
        return list(self.memo.get("positive_roots", self._positive_roots))

    def _positive_roots(self) -> Tuple[RootSum, ...]:
        frontier = [self.alpha_root(i) for i in range(self.rank)]
        allr = set()
        while frontier:
            nxt = []
            for g in frontier:
                if g in allr:
                    continue
                allr.add(g)
                wt = self.root_to_weight(g)
                for i in range(self.rank):
                    # convert back to root coordinates: gamma' = gamma - wt_i*alpha_i
                    gg = list(g)
                    gg[i] -= wt[i]
                    gg = tuple(gg)
                    if gg not in allr:
                        nxt.append(gg)
            frontier = nxt
        pos = sorted((g for g in allr if all(c >= 0 for c in g) and any(g)),
                     key=by_height)
        return tuple(pos)

    def _check_finite_type(self) -> None:
        # positive definiteness of the symmetrized matrix, rank <= 4 suffices
        n = self.rank
        sym = [[Fraction(self.symmetrizers[i] * self.cartan[i][j])
                for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            if _det([row[:k] for row in sym[:k]]) <= 0:
                raise ValueError("Cartan matrix is not of finite type")

    # -- rendering -------------------------------------------------------------

    def weight_str(self, lam: Weight) -> str:
        return "[" + ",".join(str(c) for c in lam) + "]"

    def root_str(self, gamma: RootSum) -> str:
        return "<" + ",".join(str(c) for c in gamma) + ">"

    def parse_weight(self, text: str) -> Weight:
        return self._parse(text, "[]", self.weight, "weight")

    def parse_root(self, text: str) -> RootSum:
        return self._parse(text, "<>", self.root_sum, "root sum")

    def _parse(self, text: str, brackets: str, make, what: str):
        t = text.strip()
        try:
            if t[:1] + t[-1:] != brackets:
                raise ValueError("missing brackets")
            return make(*[int(x) for x in t[1:-1].split(",")])
        except ValueError as exc:
            raise ParseError(f"{what} must look like {brackets[0]}a,b"
                             f"{brackets[1]}: {text!r} ({exc})") from exc

    def describe(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "cartan_matrix": [list(r) for r in self.cartan],
            "symmetrizers": list(self.symmetrizers),
            "l0": self.l0,
            "positive_roots": [self.root_str(g) for g in self.positive_roots()],
            "weyl_order": len(self.weyl_elements()),
        }

    def __repr__(self) -> str:
        return f"CartanDatum({self.name}, rank={self.rank}, l0={self.l0})"


def _det(m) -> Fraction:
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    out = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = Fraction(m[0][j]) * _det(minor)
        out += term if j % 2 == 0 else -term
    return out


def _rational_inverse(a) -> List[List[Fraction]]:
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] +
           [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _minimal_symmetrizers(a) -> Tuple[int, ...]:
    n = len(a)
    # d_i a_ij = d_j a_ji with minimal positive integers
    d = [Fraction(1)] * n
    fixed = [False] * n
    d[0] = Fraction(1)
    fixed[0] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if a[i][j] and fixed[i] and not fixed[j]:
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
                    fixed[j] = True
                    changed = True
    if not all(fixed):
        # disconnected diagram: remaining components start at 1
        for i in range(n):
            if not fixed[i]:
                d[i] = Fraction(1)
                fixed[i] = True
    den = 1
    for x in d:
        den = lcm(den, x.denominator)
    ints = [x * den for x in d]
    g = gcd(*(int(x) for x in ints))
    return tuple(int(x) // g for x in ints)


def preset(name: str, max_height: Optional[int] = None) -> CartanDatum:
    key = name.upper()
    if key == "C2":
        key = "B2"  # same abstract datum up to relabeling at rank 2
    if key not in _PRESETS:
        raise ParseError(f"unknown preset {name!r}; use A1, A2, B2/C2 or G2")
    return CartanDatum(_PRESETS[key], name=key, max_height=max_height)


# ---------------------------------------------------------------------------
# formal characters
# ---------------------------------------------------------------------------

class CharacterPoly:
    """Finitely supported integer-valued function on the weight lattice."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum: CartanDatum, terms: Optional[Dict[Weight, int]] = None):
        self.datum = datum
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, datum: CartanDatum, lam: Weight, c: int = 1) -> "CharacterPoly":
        return cls(datum, {tuple(lam): c})

    def __add__(self, other: "CharacterPoly") -> "CharacterPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return CharacterPoly(self.datum, out)

    def __sub__(self, other: "CharacterPoly") -> "CharacterPoly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "CharacterPoly":
        return CharacterPoly(self.datum, {w: c * k for w, k in self.terms.items()})

    def __mul__(self, other: "CharacterPoly") -> "CharacterPoly":
        out: Dict[Weight, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return CharacterPoly(self.datum, out)

    def coeff(self, lam: Weight) -> int:
        return self.terms.get(tuple(lam), 0)

    def total(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CharacterPoly)
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            parts.append(f"{c}*e{self.datum.weight_str(w)}")
        return " + ".join(parts)

    def describe(self) -> dict:
        return {self.datum.weight_str(w): c for w, c in sorted(self.terms.items())}


def kostant_table(datum: CartanDatum, depth: RootSum) -> Dict[RootSum, int]:
    """Kostant partition counts P(g), the number of multisets of positive
    roots summing to g, for every g in box(depth).  Each count is memoized
    on the datum under ("kostant", g), so a datum computes it once whatever
    the depths asked for; box order fills every smaller drop first."""
    return {g: datum.memo.get(("kostant", g),
                              lambda g=g: _kostant_count(datum, g))
            for g in box(depth)}


def _kostant_count(datum: CartanDatum, gamma: RootSum) -> int:
    # prod_{alpha>0} (1 - e^-alpha) = sum_w det(w) e^{w rho - rho} inverts
    # sum_g P(g) e^-g, so P(gamma) = [gamma = 0] - sum_{w != 1} det(w)
    # P(gamma - (rho - w rho)), every term at a smaller drop
    out = 0 if any(gamma) else 1
    for sign, shift in datum.memo.get("kostant-shifts", lambda: [
            (datum.weyl_det(w), datum.drop(
                datum.zero_weight,
                datum.weyl_act(w, datum.zero_weight, shifted=True)))
            for w in datum.all_weyl_words() if w]):
        rest = tuple(a - b for a, b in zip(gamma, shift))
        if all(c >= 0 for c in rest):
            out -= sign * kostant_dim(datum, rest)
    return out


def kostant_dim(datum: CartanDatum, gamma: RootSum) -> int:
    """Number of multisets of positive roots summing to gamma."""
    gamma = tuple(gamma)
    if any(c < 0 for c in gamma):
        raise ValueError("gamma must lie in Q^+")
    return datum.memo.get(("kostant", gamma),
                          lambda: kostant_table(datum, gamma)[gamma])


def verma_character(datum: CartanDatum, lam: Weight, depth: RootSum) -> CharacterPoly:
    """Truncation of e^lam / prod_{alpha>0} (1 - e^-alpha) to drops <= depth
    (componentwise in simple-root coordinates)."""
    return CharacterPoly(datum, {
        datum.weight_sub_root(lam, g): c
        for g, c in kostant_table(datum, depth).items()})


def weyl_character(datum: CartanDatum, lam: Weight) -> CharacterPoly:
    """Character of the simple module of highest weight lam: the
    multiplicity ``weyl_multiplicity`` of each drop in box(lam - w0 lam),
    which holds every drop of V(lam).  Memoized per lam: callers share the
    result and must not mutate it."""
    lam = tuple(lam)
    if not datum.is_dominant(lam):
        raise DominanceError(f"{lam} is not dominant")
    return datum.memo.get(("weyl_character", lam),
                          lambda: _weyl_character(datum, lam))


def _weyl_character(datum: CartanDatum, lam: Weight) -> CharacterPoly:
    # one Kostant table for the whole box, filled in box order, before the
    # multiplicities read it
    low = datum.lowest_drop(lam)
    kostant_table(datum, low)
    return CharacterPoly(datum, {
        datum.weight_sub_root(lam, g): weyl_multiplicity(datum, lam, g)
        for g in box(low)})


def weyl_multiplicity(datum: CartanDatum, lam: Weight, gamma: RootSum) -> int:
    """Dimension of the weight space of V(lam) at drop gamma (lam dominant),
    by Kostant's multiplicity formula, the drop-gamma coefficient of
    ch V(lam) = sum_w det(w) ch M(w.lam):
    m(gamma) = sum_w det(w) P(gamma - (lam - w.lam)).  Zero off
    box(lam - w0 lam), which holds every drop of V(lam).  Memoized on the
    datum per (lam, gamma)."""
    lam, gamma = tuple(lam), tuple(gamma)
    return datum.memo.get(("weyl_mult", lam, gamma),
                          lambda: _weyl_multiplicity(datum, lam, gamma))


def _weyl_multiplicity(datum: CartanDatum, lam: Weight,
                       gamma: RootSum) -> int:
    low, shifts = datum.memo.get(("weyl_shifts", lam), lambda: (
        datum.lowest_drop(lam),
        [(datum.weyl_det(w), datum.drop(lam, datum.weyl_act(w, lam,
                                                             shifted=True)))
         for w in datum.all_weyl_words()]))
    if not all(0 <= g <= h for g, h in zip(gamma, low)):
        return 0
    out = 0
    for sign, shift in shifts:
        rest = tuple(a - b for a, b in zip(gamma, shift))
        if all(c >= 0 for c in rest):
            out += sign * kostant_dim(datum, rest)
    return out
