"""The simply-connected quantized enveloping algebra over Q(q^(1/l0)).

Elements are kept in triangular normal form: every monomial is an F-word
times a torus element times an E-word, with the word parts expressed in
computed graded bases of the plus/minus parts.  The bases are obtained per
degree by exact row reduction of the quadratic-Serre ideal inside the free
word space; their sizes are checked against the partition-count oracle.

Letters of raw words are ('f', i), ('k', weight-tuple) or ('e', i).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

if sys.getrecursionlimit() < 40000:
    # word straightening recurses once per elementary swap
    sys.setrecursionlimit(40000)

from . import linalg
from .cartan import CartanDatum, RootSum, Weight, box, kostant_dim
from .errors import BorelError, DegreeCapError, ParseError, QflagError
from .memo import Memo
from .scalars import QScalar, quantum_factorial

Letter = Tuple[str, object]
Word = Tuple[Letter, ...]
MonoKey = Tuple[Tuple[int, ...], Weight, Tuple[int, ...]]  # (fword, k-weight, eword)


def _content(indices: Sequence[int], rank: int) -> RootSum:
    out = [0] * rank
    for i in indices:
        out[i] += 1
    return tuple(out)


class GradedBasis:
    """Basis data of U^+_gamma (and, by the mirror symmetry of the Serre
    presentation, of U^-_{-gamma}) inside the degree-gamma word space."""

    def __init__(self, algebra: "UAlgebra", gamma: RootSum):
        self.algebra = algebra
        self.degree = tuple(gamma)
        datum = algebra.datum
        rank = datum.rank
        words = _words_of_content(self.degree)
        self.words = words
        self.word_pos = {w: i for i, w in enumerate(words)}
        ideal_rows: List[List[QScalar]] = []
        zero = datum.zero()
        for (i, j), (serre_words, serre_coeffs) in algebra.serre_elements().items():
            sdeg = _content(serre_words[0], rank)
            rest = tuple(g - s for g, s in zip(self.degree, sdeg))
            if any(c < 0 for c in rest):
                continue
            for left_c in box(rest):
                right_c = tuple(a - b for a, b in zip(rest, left_c))
                for u in _words_of_content(left_c):
                    for v in _words_of_content(right_c):
                        row = [zero] * len(words)
                        for sw, sc in zip(serre_words, serre_coeffs):
                            w = u + sw + v
                            p = self.word_pos[w]
                            row[p] = row[p] + sc
                        ideal_rows.append(row)
        if ideal_rows:
            ech, pivots = linalg.rref(ideal_rows)
        else:
            ech, pivots = [], []
        self._echelon = ech
        self._pivots = pivots
        self.free_words = [w for k, w in enumerate(words) if k not in pivots]
        expected = kostant_dim(datum, self.degree)
        if len(self.free_words) != expected:
            raise QflagError(
                f"basis dimension {len(self.free_words)} at degree {self.degree} "
                f"!= partition count {expected}")
        self.free_pos = {w: i for i, w in enumerate(self.free_words)}
        self.memo = Memo()

    @property
    def dim(self) -> int:
        return len(self.free_words)

    def reduce_word(self, word: Tuple[int, ...]) -> Dict[Tuple[int, ...], QScalar]:
        """Coordinates of a raw degree-gamma word in the free-word basis."""
        return self.memo.get(word, lambda: self._reduce(word))

    def _reduce(self, word: Tuple[int, ...]) -> Dict[Tuple[int, ...], QScalar]:
        datum = self.algebra.datum
        vec = {self.word_pos[word]: datum.one()}
        for row, pc in zip(self._echelon, self._pivots):
            c = vec.get(pc)
            if c is None or c.is_zero():
                continue
            del vec[pc]
            for k, x in enumerate(row):
                if k == pc or x.is_zero():
                    continue
                s = vec.get(k, datum.zero()) - c * x
                if s.is_zero():
                    vec.pop(k, None)
                else:
                    vec[k] = s
        return {self.words[k]: c for k, c in vec.items() if not c.is_zero()}


def _words_of_content(gamma: RootSum) -> List[Tuple[int, ...]]:
    rank = len(gamma)
    letters: List[int] = []
    for i in range(rank):
        letters.extend([i] * gamma[i])
    if not letters:
        return [()]
    seen = set()
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], remaining: Tuple[int, ...]):
        if not any(remaining):
            out.append(prefix)
            return
        for i in range(rank):
            if remaining[i]:
                rem = list(remaining)
                rem[i] -= 1
                rec(prefix + (i,), tuple(rem))

    rec((), gamma)
    return sorted(out)


class UElement:
    """An element of U in canonical F * K * E normal form."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "UAlgebra", terms: Dict[MonoKey, QScalar]):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "UElement") -> "UElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return UElement(self.algebra, out)

    def __sub__(self, other: "UElement") -> "UElement":
        return self + other.scale(-self.algebra.datum.one())

    def __neg__(self) -> "UElement":
        return self.scale(-self.algebra.datum.one())

    def scale(self, c: QScalar) -> "UElement":
        return UElement(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "UElement") -> "UElement":
        alg = self.algebra
        out: Dict[MonoKey, QScalar] = {}
        for (f1, l1, e1), c1 in self.terms.items():
            for (f2, l2, e2), c2 in other.terms.items():
                word = alg.monomial_word(f1, l1, e1) + alg.monomial_word(f2, l2, e2)
                for key, c in alg.normal_form_word(word).items():
                    v = c1 * c2 * c
                    s = out.get(key)
                    out[key] = v if s is None else s + v
        return UElement(alg, out)

    def __pow__(self, n: int) -> "UElement":
        if n < 0:
            raise ValueError("negative powers only exist for torus elements")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items(),
                                 key=lambda kv: _mono_sort_key(kv[0]))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------------

    def weight(self) -> Optional[Weight]:
        """Lambda-weight under torus conjugation, or None if mixed."""
        datum = self.algebra.datum
        wt = None
        for (fw, _l, ew) in self.terms:
            w = datum.weight_sub(
                datum.root_to_weight(_content(ew, datum.rank)),
                datum.root_to_weight(_content(fw, datum.rank)))
            if wt is None:
                wt = w
            elif wt != w:
                return None
        return wt if wt is not None else datum.zero_weight

    def __repr__(self) -> str:
        return self.to_str()

    def to_str(self) -> str:
        alg = self.algebra
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_mono_sort_key):
            c = self.terms[key]
            fw, lam, ew = key
            factors = []
            factors.extend(f"f[{i + 1}]" for i in fw)
            if any(lam):
                factors.append("k[" + ",".join(str(x) for x in lam) + "]")
            factors.extend(f"e[{i + 1}]" for i in ew)
            body = "*".join(factors) if factors else "1"
            if c.is_one():
                parts.append(body)
            elif body == "1":
                parts.append(f"({c.to_str()})")
            else:
                parts.append(f"({c.to_str()})*{body}")
        return " + ".join(parts)


def _mono_sort_key(key: MonoKey):
    fw, lam, ew = key
    return (len(fw), fw, lam, len(ew), ew)


class HopfTensor:
    """Finitely supported tensor of normal monomials (fixed arity)."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra: "UAlgebra", arity: int,
                 terms: Dict[Tuple[MonoKey, ...], QScalar]):
        self.algebra = algebra
        self.arity = arity
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def __add__(self, other: "HopfTensor") -> "HopfTensor":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return HopfTensor(self.algebra, self.arity, out)

    def scale(self, c: QScalar) -> "HopfTensor":
        return HopfTensor(self.algebra, self.arity,
                          {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "HopfTensor") -> "HopfTensor":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        alg = self.algebra
        out: Dict[Tuple[MonoKey, ...], QScalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                legs = []
                for m1, m2 in zip(k1, k2):
                    legs.append(alg.mono_element(m1) * alg.mono_element(m2))
                base = c1 * c2
                for combo in _expand_legs(legs):
                    keys, cs = combo
                    v = base
                    for c in cs:
                        v = v * c
                    s = out.get(keys)
                    out[keys] = v if s is None else s + v
        return HopfTensor(alg, self.arity, out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HopfTensor) and self.arity == other.arity
                and self.terms == other.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms,
                          key=lambda ms: tuple(_mono_sort_key(m) for m in ms)):
            c = self.terms[key]
            legs = " (x) ".join(self.algebra.mono_element(m).to_str() for m in key)
            parts.append(f"({c.to_str()})*[{legs}]")
        return " + ".join(parts)


def _expand_legs(legs: List[UElement]):
    combos = [((), ())]
    for el in legs:
        new = []
        for keys, cs in combos:
            for k, c in el.terms.items():
                new.append((keys + (k,), cs + (c,)))
        combos = new
    return combos


class UAlgebra:
    """Factory/cache object binding a CartanDatum to algebra operations."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.memo = Memo()

    # -- scalar shortcuts ---------------------------------------------------

    def qi(self, i: int, power: int = 1) -> QScalar:
        return self.datum.q_power(self.datum.d(i) * power)

    # -- element constructors ------------------------------------------------

    def zero(self) -> UElement:
        return UElement(self, {})

    def one(self) -> UElement:
        return UElement(self, {((), self.datum.zero_weight, ()): self.datum.one()})

    def e(self, i: int) -> UElement:
        return UElement(self, {((), self.datum.zero_weight, (i,)): self.datum.one()})

    def f(self, i: int) -> UElement:
        return UElement(self, {((i,), self.datum.zero_weight, ()): self.datum.one()})

    def k(self, lam: Sequence[int]) -> UElement:
        return UElement(self, {((), tuple(lam), ()): self.datum.one()})

    def k_alpha(self, i: int, power: int = 1) -> UElement:
        lam = tuple(power * c for c in self.datum.alpha(i))
        return self.k(lam)

    def mono_element(self, key: MonoKey) -> UElement:
        return UElement(self, {key: self.datum.one()})

    def from_scalar(self, c: QScalar) -> UElement:
        return UElement(self, {((), self.datum.zero_weight, ()): c})

    def e_word(self, word: Sequence[int]) -> UElement:
        word = tuple(word)
        red = self.basis(_content(word, self.datum.rank)).reduce_word(word) \
            if word else {(): self.datum.one()}
        return UElement(self, {((), self.datum.zero_weight, w): c
                               for w, c in red.items()})

    def f_word(self, word: Sequence[int]) -> UElement:
        word = tuple(word)
        red = self.basis(_content(word, self.datum.rank)).reduce_word(word) \
            if word else {(): self.datum.one()}
        return UElement(self, {(w, self.datum.zero_weight, ()): c
                               for w, c in red.items()})

    def divided_e(self, i: int, n: int) -> UElement:
        fact = quantum_factorial(n, self.datum.d(i), self.datum.l0)
        return self.e_word((i,) * n).scale(fact.inverse())

    def divided_f(self, i: int, n: int) -> UElement:
        fact = quantum_factorial(n, self.datum.d(i), self.datum.l0)
        return self.f_word((i,) * n).scale(fact.inverse())

    # -- Serre data ---------------------------------------------------------

    def serre_elements(self) -> Dict[Tuple[int, int], tuple]:
        return self.memo.get("serre", self._serre_elements)

    def _serre_elements(self) -> Dict[Tuple[int, int], tuple]:
        out = {}
        rank = self.datum.rank
        for i in range(rank):
            for j in range(rank):
                if i == j:
                    continue
                m = 1 - self.datum.cartan[i][j]
                words = []
                coeffs = []
                for n in range(m + 1):
                    w = (i,) * (m - n) + (j,) + (i,) * n
                    c = (quantum_factorial(m - n, self.datum.d(i), self.datum.l0)
                         * quantum_factorial(n, self.datum.d(i), self.datum.l0))
                    coeff = c.inverse()
                    if n % 2:
                        coeff = -coeff
                    words.append(w)
                    coeffs.append(coeff)
                out[(i, j)] = (tuple(words), tuple(coeffs))
        return out

    def basis(self, gamma: RootSum) -> GradedBasis:
        gamma = tuple(gamma)
        return self.memo.get(("basis", gamma),
                             lambda: GradedBasis(self, gamma))

    # -- normal form -----------------------------------------------------

    def monomial_word(self, fw: Tuple[int, ...], lam: Weight,
                      ew: Tuple[int, ...]) -> Word:
        word: List[Letter] = [("f", i) for i in fw]
        if any(lam):
            word.append(("k", tuple(lam)))
        word.extend(("e", i) for i in ew)
        return tuple(word)

    def normal_form_word(self, word: Word,
                         strategy: str = "first") -> Dict[MonoKey, QScalar]:
        """Canonical terms of an arbitrary word; cached for 'first'."""
        self._check_cap(word)
        raw = self._raw_normal(word, strategy)
        out: Dict[MonoKey, QScalar] = {}
        for (fw, lam, ew), c in raw.items():
            fred = self.basis(_content(fw, self.datum.rank)).reduce_word(fw) \
                if fw else {(): self.datum.one()}
            ered = self.basis(_content(ew, self.datum.rank)).reduce_word(ew) \
                if ew else {(): self.datum.one()}
            for fwb, cf in fred.items():
                for ewb, ce in ered.items():
                    key = (fwb, lam, ewb)
                    v = c * cf * ce
                    s = out.get(key)
                    out[key] = v if s is None else s + v
        return {k: c for k, c in out.items() if not c.is_zero()}

    def _check_cap(self, word: Word) -> None:
        cap = self.datum.max_height
        ne = sum(1 for t, _ in word if t == "e")
        nf = sum(1 for t, _ in word if t == "f")
        if ne > cap or nf > cap:
            raise DegreeCapError(
                f"word has e-height {ne}, f-height {nf}; cap is {cap} "
                "(set QFLAG_MAX_HEIGHT or CartanDatum.max_height to raise)")

    def _raw_normal(self, word: Word, strategy: str) -> Dict[Tuple, QScalar]:
        if strategy == "first":
            return self.memo.get(("raw_nf", word),
                                 lambda: self._straighten(word, strategy))
        return self._straighten(word, strategy)

    def _straighten(self, word: Word, strategy: str) -> Dict[Tuple, QScalar]:
        """One elementary swap at the first (or last) out-of-order pair,
        then recursion on the resulting words."""
        datum = self.datum
        pos = None
        rng = range(len(word) - 1)
        if strategy == "last":
            rng = reversed(rng)
        for p in rng:
            a, b = word[p], word[p + 1]
            if a[0] == "e" and b[0] in ("f", "k"):
                pos = p
                break
            if a[0] == "k" and b[0] in ("f", "k"):
                pos = p
                break
        if pos is None:
            fw = tuple(i for t, i in word if t == "f")
            lam = datum.zero_weight
            for t, v in word:
                if t == "k":
                    lam = datum.weight_add(lam, v)
            ew = tuple(i for t, i in word if t == "e")
            res = {(fw, lam, ew): datum.one()}
        else:
            a, b = word[pos], word[pos + 1]
            pre, post = word[:pos], word[pos + 2:]
            acc: Dict[Tuple, QScalar] = {}

            def add_all(terms: Dict[Tuple, QScalar], c: QScalar):
                for k, v in terms.items():
                    x = v * c
                    s = acc.get(k)
                    acc[k] = x if s is None else s + x

            if a[0] == "e" and b[0] == "f":
                i, j = a[1], b[1]
                add_all(self._raw_normal(pre + (b, a) + post, strategy),
                        datum.one())
                if i == j:
                    den = self.qi(i) - self.qi(i, -1)
                    c = den.inverse()
                    kp = ("k", datum.alpha(i))
                    km = ("k", tuple(-x for x in datum.alpha(i)))
                    add_all(self._raw_normal(pre + (kp,) + post, strategy), c)
                    add_all(self._raw_normal(pre + (km,) + post, strategy), -c)
            elif a[0] == "e" and b[0] == "k":
                lam = b[1]
                c = datum.q_pair(tuple(-x for x in lam), datum.alpha(a[1]))
                add_all(self._raw_normal(pre + (b, a) + post, strategy), c)
            elif a[0] == "k" and b[0] == "f":
                lam = a[1]
                c = datum.q_pair(tuple(-x for x in lam), datum.alpha(b[1]))
                add_all(self._raw_normal(pre + (b, a) + post, strategy), c)
            else:  # k, k -> merge
                lam = datum.weight_add(a[1], b[1])
                merged = (("k", lam),) if any(lam) else ()
                add_all(self._raw_normal(pre + merged + post, strategy),
                        datum.one())
            res = {k: v for k, v in acc.items() if not v.is_zero()}
        return res

    # -- Hopf structure ------------------------------------------------------

    def _delta_letter(self, letter: Letter) -> HopfTensor:
        one = self.datum.one()
        unit = ((), self.datum.zero_weight, ())
        if letter[0] == "k":
            lam = letter[1]
            key = ((), tuple(lam), ())
            return HopfTensor(self, 1, {(key, key): one})
        if letter[0] == "e":
            i = letter[1]
            ei = ((), self.datum.zero_weight, (i,))
            ki = ((), self.datum.alpha(i), ())
            return HopfTensor(self, 1, {(ei, unit): one, (ki, ei): one})
        i = letter[1]
        fi = ((i,), self.datum.zero_weight, ())
        kim = ((), tuple(-x for x in self.datum.alpha(i)), ())
        return HopfTensor(self, 1, {(fi, kim): one, (unit, fi): one})

    def coproduct(self, u: UElement, arity: int = 1) -> HopfTensor:
        """Delta_arity(u): a tensor with arity+1 legs."""
        if arity < 1:
            raise ValueError("arity must be >= 1")
        unit = ((), self.datum.zero_weight, ())
        out = HopfTensor(self, 1, {})
        for key, c in u.terms.items():
            fw, lam, ew = key
            word = self.monomial_word(fw, lam, ew)
            t = HopfTensor(self, 1, {(unit, unit): self.datum.one()})
            for letter in word:
                t = t * self._delta_letter(letter)
            out = out + t.scale(c)
        for _ in range(arity - 1):
            out = self._delta_leg0(out)
        return out

    def _delta_leg0(self, t: HopfTensor) -> HopfTensor:
        out: Dict[Tuple[MonoKey, ...], QScalar] = {}
        for key, c in t.terms.items():
            first = self.coproduct(self.mono_element(key[0]), 1)
            for k2, c2 in first.terms.items():
                nk = k2 + key[1:]
                v = c * c2
                s = out.get(nk)
                out[nk] = v if s is None else s + v
        return HopfTensor(self, t.arity + 1, out)

    def counit(self, u: UElement) -> QScalar:
        out = self.datum.zero()
        for (fw, _lam, ew), c in u.terms.items():
            if not fw and not ew:
                out = out + c
        return out

    def antipode(self, u: UElement, inverse: bool = False) -> UElement:
        out = self.zero()
        for (fw, lam, ew), c in u.terms.items():
            acc = self.one()
            # S is an anti-automorphism: reverse the monomial letter order
            for i in reversed(ew):
                acc = acc * self._antipode_letter(("e", i), inverse)
            acc = acc * self.k(tuple(-x for x in lam))
            for i in reversed(fw):
                acc = acc * self._antipode_letter(("f", i), inverse)
            out = out + acc.scale(c)
        return out

    def _antipode_letter(self, letter: Letter, inverse: bool) -> UElement:
        kind, i = letter
        if kind == "e":
            if inverse:
                return -(self.e(i) * self.k_alpha(i, -1))
            return -(self.k_alpha(i, -1) * self.e(i))
        if inverse:
            return -(self.k_alpha(i, 1) * self.f(i))
        return -(self.f(i) * self.k_alpha(i, 1))

    # -- characters on Borel parts -----------------------------------------------

    def chi(self, lam: Weight, u: UElement, side: str) -> QScalar:
        """chi^+_lam on U^{>=0} (side 'plus') or chi^-_lam on U^{<=0}."""
        out = self.datum.zero()
        for (fw, nu, ew), c in u.terms.items():
            if side == "plus":
                if fw:
                    raise BorelError("element has F-letters; not in U^{>=0}")
                if ew:
                    continue
            elif side == "minus":
                if ew:
                    raise BorelError("element has E-letters; not in U^{<=0}")
                if fw:
                    continue
            else:
                raise ValueError("side must be 'plus' or 'minus'")
            out = out + c * self.datum.q_pair(lam, nu)
        return out

    # -- braid automorphisms -----------------------------------------------------

    def braid_generator_image(self, i: int, letter: Letter) -> UElement:
        # The sign prefactor (-1)^{a_ij} on the j != i images makes the
        # algebra automorphism compatible with the triple-exponential
        # operator on modules, T_i(u v) = T_i(u) T_i(v); it was pinned by
        # conjugating generator actions on faithful desk modules.
        kind, v = letter
        datum = self.datum
        if kind == "k":
            return self.k(datum.weyl_act((i,), v))
        if kind == "e":
            j = v
            if j == i:
                return -(self.f(i) * self.k_alpha(i))
            m = -datum.cartan[i][j]
            out = self.zero()
            for k in range(m + 1):
                term = (self.divided_e(i, m - k) * self.e(j)
                        * self.divided_e(i, k)).scale(self.qi(i, -k))
                out = out + (term if (k + m) % 2 == 0 else -term)
            return out
        j = v
        if j == i:
            return -(self.k_alpha(i, -1) * self.e(i))
        m = -datum.cartan[i][j]
        out = self.zero()
        for k in range(m + 1):
            term = (self.divided_f(i, k) * self.f(j)
                    * self.divided_f(i, m - k)).scale(self.qi(i, k))
            out = out + (term if (k + m) % 2 == 0 else -term)
        return out

    def braid_inverse_image(self, i: int, letter: Letter) -> UElement:
        kind, v = letter
        datum = self.datum
        if kind == "k":
            return self.k(datum.weyl_act((i,), v))
        return self.memo.get(("braid_inv", i, kind, v),
                             lambda: self._braid_inverse_solve(i, kind, v))

    def _braid_inverse_solve(self, i: int, kind: str, v: int) -> UElement:
        datum = self.datum
        target = self.e(v) if kind == "e" else self.f(v)
        if kind == "e" and v == i:
            candidates = [self.k_alpha(i, -1) * self.f(i)]
        elif kind == "f" and v == i:
            candidates = [self.e(i) * self.k_alpha(i)]
        else:
            gamma = _content((v,), datum.rank)
            ai = datum.alpha_root(i)
            m = -datum.cartan[i][v]
            gamma = tuple(g + m * a for g, a in zip(gamma, ai))
            words = self.basis(gamma).free_words
            candidates = [self.e_word(w) if kind == "e" else self.f_word(w)
                          for w in words]
        images = [self.braid_on_element(i, c) for c in candidates]
        keys = sorted({k for img in images for k in img.terms}
                      | set(target.terms), key=_mono_sort_key)
        a = [[img.terms.get(k, datum.zero()) for img in images] for k in keys]
        b = [target.terms.get(k, datum.zero()) for k in keys]
        sol = linalg.solve(a, b)
        if sol is None:
            raise QflagError(
                f"no braid inverse image for T_{i}^-1 of {(kind, v)}")
        out = self.zero()
        for c, cand in zip(sol, candidates):
            out = out + cand.scale(c)
        return out

    def braid_on_element(self, i: int, u: UElement,
                         inverse: bool = False) -> UElement:
        image = self.braid_inverse_image if inverse else self.braid_generator_image
        out = self.zero()
        for (fw, lam, ew), c in u.terms.items():
            acc = self.one()
            for j in fw:
                acc = acc * image(i, ("f", j))
            if any(lam):
                acc = acc * image(i, ("k", lam))
            for j in ew:
                acc = acc * image(i, ("e", j))
            out = out + acc.scale(c)
        return out

    def braid_word_on_element(self, word: Sequence[int], u: UElement,
                              inverse: bool = False) -> UElement:
        """T_w for w given by any word (reduced internally)."""
        red = self.datum.weyl_canonical(word)
        out = u
        if inverse:
            for i in red:
                out = self.braid_on_element(i, out, inverse=True)
        else:
            for i in reversed(red):
                out = self.braid_on_element(i, out)
        return out

    # -- parsing/printing -------------------------------------------------------

    def parse(self, text: str) -> UElement:
        return _parse_u(self, text)


def _parse_u(alg: UAlgebra, text: str) -> UElement:
    from .scalars import _Tok  # shared tokenizer helpers

    datum = alg.datum
    tok = _Tok(text)

    def atom() -> UElement:
        c = tok.peek()
        if c == "(":
            # scalar coefficient in the scalars grammar
            depth = 0
            start = tok.pos
            while True:
                ch = tok.take()
                if not ch:
                    raise ParseError("unbalanced parenthesis")
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        break
            inner = tok.text[start:tok.pos]
            return alg.from_scalar(QScalar.parse(inner[1:-1], datum.l0))
        if c in ("e", "f"):
            tok.take()
            tok.expect("[")
            i = tok.number() - 1
            tok.expect("]")
            base = alg.e(i) if c == "e" else alg.f(i)
            return power(base)
        if c == "k":
            tok.take()
            tok.expect("[")
            coords = [_signed_number(tok)]
            while tok.peek() == ",":
                tok.take()
                coords.append(_signed_number(tok))
            tok.expect("]")
            return power(alg.k(datum.weight(*coords)))
        if c.isdigit():
            return alg.from_scalar(QScalar.integer(tok.number(), datum.l0))
        if c == "-":
            tok.take()
            return -atom()
        if c == "q":
            tok.take()
            base = alg.from_scalar(QScalar.q_power(1, datum.l0))
            return power(base)
        raise ParseError(f"unexpected {c!r} in element at {tok.pos}")

    def power(base: UElement) -> UElement:
        if tok.peek() != "^":
            return base
        tok.take()
        n = _signed_number(tok)
        if n < 0:
            # negative powers only for pure torus monomials
            keys = list(base.terms)
            if len(keys) == 1 and not keys[0][0] and not keys[0][2] \
                    and base.terms[keys[0]].is_one():
                lam = keys[0][1]
                return alg.k(tuple(n * x for x in lam))
            raise ParseError("negative power of a non-torus element")
        return base ** n

    def prod() -> UElement:
        out = atom()
        while tok.peek() == "*":
            tok.take()
            out = out * atom()
        return out

    out = prod()
    while tok.peek() in ("+", "-"):
        op = tok.take()
        term = prod()
        out = out + term if op == "+" else out - term
    if tok.peek():
        raise ParseError(f"trailing input at {tok.pos} in {text!r}")
    return out


def _signed_number(tok) -> int:
    neg = False
    if tok.peek() == "-":
        tok.take()
        neg = True
    n = tok.number()
    return -n if neg else n
