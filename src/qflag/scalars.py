"""Exact arithmetic in the coefficient field Q(q^(1/l0)).

A scalar is a quotient of two Laurent polynomials in the formal variable
q^(1/l0) with integer coefficients.  Exponents are stored as integers in
units of 1/l0, so ``{2: 1}`` with ``l0 == 2`` is the monomial q.  The
representation is canonical after every operation: numerator and
denominator share no polynomial factor, the pair of integer contents is
coprime, and the lowest term of the denominator has a positive
coefficient.  Equality of values is therefore equality of
representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Tuple

from .errors import ParseError, ScalarDivisionError, ScalarMixError

Lp = Dict[int, int]  # sparse Laurent polynomial, exponent (1/l0 units) -> coeff


# ---------------------------------------------------------------------------
# Laurent polynomial helpers (plain dicts, integer coefficients)
# ---------------------------------------------------------------------------

def lp_const(c: int) -> Lp:
    return {0: c} if c else {}


def lp_add(a: Lp, b: Lp) -> Lp:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_neg(a: Lp) -> Lp:
    return {e: -c for e, c in a.items()}


def lp_mul(a: Lp, b: Lp) -> Lp:
    if not a or not b:
        return {}
    out: Lp = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_content(a: Lp) -> int:
    g = 0
    for c in a.values():
        g = gcd(g, abs(c))
    return g


def lp_min_exp(a: Lp) -> int:
    return min(a)


def lp_shift(a: Lp, s: int) -> Lp:
    return {e + s: c for e, c in a.items()}


def _lp_primitive(a: Lp) -> Lp:
    """Divide out integer content and normalize lowest exponent to 0."""
    if not a:
        return {}
    g = lp_content(a)
    m = lp_min_exp(a)
    return {e - m: c // g for e, c in a.items()}


def _lp_positive_lowest(a: Lp) -> Lp:
    if a and a[lp_min_exp(a)] < 0:
        return lp_neg(a)
    return a


# Dense integer kernel.  Both Laurent polynomials are shifted so that their
# lowest exponent is 0 and written as coefficient lists, lowest degree
# first, in the variable q^(step/l0), where ``step`` is the gcd of all
# shifted exponents of both inputs (t -> t^step commutes with division and
# with gcd, so nothing is lost).

def _dense(a: Lp, lo: int, step: int) -> List[int]:
    out = [0] * ((max(a) - lo) // step + 1)
    for e, c in a.items():
        out[(e - lo) // step] = c
    return out


def _step(a: Lp, ma: int, b: Lp, mb: int) -> int:
    """gcd of the exponents of a and b above their lowest; 0 when both are
    monomials."""
    return gcd(*[e - ma for e in a], *[e - mb for e in b])


def _dense_primitive(p: List[int]) -> List[int]:
    """Primitive part with the zero low coefficients dropped (a power of q
    is a unit of the Laurent ring)."""
    lo = 0
    while not p[lo]:
        lo += 1
    g = 0
    for c in p:
        g = gcd(g, c)
        if g == 1:
            return p[lo:] if lo else p
    return [c // g for c in p[lo:]]


def _dense_prem(x: List[int], y: List[int]) -> List[int]:
    """A nonzero integer multiple of the remainder of x by y (deg x >= deg
    y), top zeros stripped.  Each step cancels the top term of x with the
    smallest integer multiples that do it."""
    r = list(x)
    m = len(y) - 1
    lc = y[m]
    for i in range(len(r) - 1, m - 1, -1):
        c = r.pop()
        if not c:
            continue
        g = gcd(c, lc)
        a, b = lc // g, c // g  # r := a*r - b*y*q^(i-m)
        if a != 1:
            for j in range(i):
                r[j] *= a
        s = i - m
        for j in range(m):
            r[s + j] -= b * y[j]
    while r and not r[-1]:
        r.pop()
    return r


def lp_gcd(a: Lp, b: Lp) -> Lp:
    """Monic-free gcd of Laurent polynomials: a primitive ordinary
    polynomial with constant term, positive lowest coefficient.  Computed
    by the primitive polynomial remainder sequence over Z (Collins 1967,
    Brown 1971): integer pseudo-remainders, each reduced to its primitive
    part."""
    if not a or not b:
        return _lp_positive_lowest(_lp_primitive(a or b))
    ma, mb = lp_min_exp(a), lp_min_exp(b)
    step = _step(a, ma, b, mb)
    if not step:
        return {0: 1}
    x = _dense_primitive(_dense(a, ma, step))
    y = _dense_primitive(_dense(b, mb, step))
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = _dense_prem(x, y)
        if not r:
            break
        x, y = y, _dense_primitive(r)
    if len(y) == 1:
        return {0: 1}
    sign = -1 if y[0] < 0 else 1
    return {k * step: sign * c for k, c in enumerate(y) if c}


def lp_exact_div(a: Lp, b: Lp) -> Lp:
    """Exact division a/b over Z[q^(+-1/l0)] by integer long division;
    raises ArithmeticError if b does not divide a there, also when the
    quotient exists over Q but not over Z (internal use)."""
    if not b:
        raise ZeroDivisionError("Laurent division by zero")
    if not a:
        return {}
    ma, mb = lp_min_exp(a), lp_min_exp(b)
    step = _step(a, ma, b, mb) or 1
    r = _dense(a, ma, step)
    y = _dense(b, mb, step)
    m = len(y) - 1
    lc = y[m]
    quo: Lp = {}
    for i in range(len(r) - 1, m - 1, -1):
        c = r[i]
        if not c:
            continue
        k, rem = divmod(c, lc)
        if rem:
            raise ArithmeticError("inexact Laurent division")
        quo[ma - mb + (i - m) * step] = k
        s = i - m
        for j in range(m):
            r[s + j] -= k * y[j]
    if any(r[:m]):
        raise ArithmeticError("inexact Laurent division")
    return quo


# ---------------------------------------------------------------------------
# QScalar
# ---------------------------------------------------------------------------

# The one den of every polynomial (and num of one): shared, never mutated.
_ONE: Lp = {0: 1}


class QScalar:
    """An element of Q(q^(1/l0)) in canonical form.  Its num and den dicts
    may be shared with other scalars and must not be mutated."""

    __slots__ = ("num", "den", "l0", "_hash")

    def __init__(self, num: Lp, den: Lp, l0: int):
        self.l0 = _valid_l0(l0)
        if not den:
            raise ScalarDivisionError("zero denominator")
        self.num, self.den = _canonicalize(num, den)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, l0: int) -> "QScalar":
        return _canon({}, _ONE, _valid_l0(l0))

    @classmethod
    def one(cls, l0: int) -> "QScalar":
        return _canon(_ONE, _ONE, _valid_l0(l0))

    @classmethod
    def integer(cls, n: int, l0: int) -> "QScalar":
        return _canon(lp_const(n), _ONE, _valid_l0(l0))

    @classmethod
    def q_power(cls, exp, l0: int) -> "QScalar":
        """q**exp with exp an int or Fraction whose denominator divides l0."""
        f = Fraction(exp)
        scaled = f * l0
        if scaled.denominator != 1:
            raise ValueError(f"exponent {f} not in (1/{l0})Z")
        return cls.q_l0(int(scaled), l0)

    @classmethod
    def q_l0(cls, n: int, l0: int) -> "QScalar":
        """The monomial q**(n/l0) for an integer n."""
        return _canon({n: 1}, _ONE, _valid_l0(l0))

    @classmethod
    def from_poly(cls, num: Lp, l0: int) -> "QScalar":
        return cls(dict(num), _ONE, l0)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.is_polynomial() and self.num == _ONE

    def is_polynomial(self) -> bool:
        return self.den is _ONE or self.den == _ONE

    # -- arithmetic ----------------------------------------------------------
    #
    # Each operation hands its canonical pair straight to _canon.  The
    # shortcuts test ``den is _ONE``; any other {0: 1} takes the full route.

    def _check(self, other: "QScalar") -> None:
        if self.l0 != other.l0:
            raise ScalarMixError(f"l0 mismatch: {self.l0} vs {other.l0}")

    def __add__(self, other: "QScalar") -> "QScalar":
        if self.l0 != other.l0:
            self._check(other)
        a, c = self.num, other.num
        if not c:
            return self
        if not a:
            return other
        b, d = self.den, other.den
        if b is _ONE and d is _ONE:  # a sum of polynomials is canonical
            return _canon(lp_add(a, c), _ONE, self.l0)
        if b == d:
            return _canon(*_canonicalize(lp_add(a, c), b), self.l0)
        return _canon(*_henrici(a, b, c, d), self.l0)

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        return _canon(lp_neg(self.num), self.den, self.l0)

    def __mul__(self, other: "QScalar") -> "QScalar":
        if self.l0 != other.l0:
            self._check(other)
        a, c = self.num, other.num
        if not a:
            return self
        if not c:
            return other
        b, d = self.den, other.den
        if d is _ONE and len(c) == 1:
            (e, s), = c.items()
            if s == 1 or s == -1:
                return _shifted(self, e, s)
        if b is _ONE and len(a) == 1:
            (e, s), = a.items()
            if s == 1 or s == -1:
                return _shifted(other, e, s)
        if b is _ONE and d is _ONE:
            return _canon(lp_mul(a, c), _ONE, self.l0)
        # for coprime pairs gcd(a*c, b*d) = gcd(a, d) * gcd(c, b)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _canon(*_normalize(lp_mul(a, c), lp_mul(b, d)), self.l0)

    def inverse(self) -> "QScalar":
        if not self.num:
            raise ScalarDivisionError("inverting zero")
        # num and den stay coprime: only units need normalizing
        return _canon(*_normalize(self.den, self.num), self.l0)

    def __truediv__(self, other: "QScalar") -> "QScalar":
        self._check(other)
        if not other.num:
            raise ScalarDivisionError("division by zero")
        a, c = _cancel(self.num, other.num)
        d, b = _cancel(other.den, self.den)
        return _canon(*_normalize(lp_mul(a, d), lp_mul(b, c)), self.l0)

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = QScalar.one(self.l0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        return (self.l0 == other.l0 and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.l0,
                               tuple(sorted(self.num.items())),
                               tuple(sorted(self.den.items()))))
        return self._hash

    # -- rendering / parsing ---------------------------------------------------

    def __repr__(self) -> str:
        return f"QScalar({self.to_str()!r}, l0={self.l0})"

    def __str__(self) -> str:
        return self.to_str()

    def to_str(self) -> str:
        num = _poly_str(self.num, self.l0)
        if self.is_polynomial():
            return num
        den = _poly_str(self.den, self.l0)
        return f"({num})/({den})"

    @classmethod
    def parse(cls, text: str, l0: int) -> "QScalar":
        return _parse_scalar(text, l0)


def _canon(num: Lp, den: Lp, l0: int) -> QScalar:
    """The scalar of a pair already in canonical form, with den _ONE when
    it is 1: the internal constructor, without the public one's checks."""
    x = object.__new__(QScalar)
    x.num, x.den, x.l0, x._hash = num, den, l0, None
    return x


def _valid_l0(l0: int) -> int:
    if l0 <= 0:
        raise ValueError("l0 must be a positive integer")
    return l0


def _shifted(x: QScalar, e: int, s: int) -> QScalar:
    """x times the unit s*q^(e/l0), s = +-1: a unit shift and a sign keep
    the pair coprime and both contents, so den is reused untouched."""
    if s == 1:
        if not e:
            return x
        num = {k + e: c for k, c in x.num.items()}
    else:
        num = {k + e: -c for k, c in x.num.items()}
    return _canon(num, x.den, x.l0)


def _henrici(a: Lp, b: Lp, c: Lp, d: Lp) -> Tuple[Lp, Lp]:
    """The canonical pair of a/b + c/d, b != d, by Henrici's method (Knuth,
    TAOCP vol. 2, 4.5.1): with g = gcd(b, d), no factor of b/g or d/g
    divides n = a(d/g) + c(b/g), so only gcd(n, g) cancels.  When g = 1
    only the integer contents and the sign are left to normalize."""
    g = lp_gcd(b, d) if len(b) > 1 and len(d) > 1 else _ONE
    if g == _ONE:
        return _normalize(lp_add(lp_mul(a, d), lp_mul(c, b)), lp_mul(b, d))
    bg, dg = lp_exact_div(b, g), lp_exact_div(d, g)
    n, h = _cancel(lp_add(lp_mul(a, dg), lp_mul(c, bg)), g)
    return _normalize(n, lp_mul(bg, lp_mul(dg, h)))


def _canonicalize(num: Lp, den: Lp) -> Tuple[Lp, Lp]:
    return _normalize(*_cancel(num, den))


def _cancel(x: Lp, y: Lp) -> Tuple[Lp, Lp]:
    """x and y divided by their polynomial gcd."""
    # a monomial c*q^k has no nonconstant factor: its gcd with anything is 1
    if len(x) > 1 and len(y) > 1:
        # y often divides x outright; then one exact division replaces the
        # gcd, and x/y over 1 is the same pair up to units
        if max(y) - min(y) <= max(x) - min(x):
            try:
                return lp_exact_div(x, y), _ONE
            except ArithmeticError:
                pass
        g = lp_gcd(x, y)
        if g != _ONE:
            return lp_exact_div(x, g), lp_exact_div(y, g)
    return x, y


def _normalize(num: Lp, den: Lp) -> Tuple[Lp, Lp]:
    """Normalize the units of a coprime pair: lowest exponent of den 0,
    coprime integer contents, lowest coefficient of den positive."""
    if not num:
        return {}, _ONE
    # exponent normalization: pull q-power out of den so its lowest exp is 0
    md = lp_min_exp(den)
    if md:
        den = lp_shift(den, -md)
        num = lp_shift(num, -md)
    cn, cd = lp_content(num), lp_content(den)
    g2 = gcd(cn, cd)
    if g2 > 1:
        num = {e: c // g2 for e, c in num.items()}
        den = {e: c // g2 for e, c in den.items()}
    if den[lp_min_exp(den)] < 0:
        num = lp_neg(num)
        den = lp_neg(den)
    return num, _ONE if den == _ONE else den


# ---------------------------------------------------------------------------
# quantum combinatorial scalars
# ---------------------------------------------------------------------------

def quantum_integer(n: int, d: int, l0: int) -> QScalar:
    """[n] at t = q**d: the Laurent polynomial q^(d(n-1)) + ... + q^(-d(n-1))."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    poly: Lp = {}
    for k in range(n):
        e = d * (n - 1 - 2 * k) * l0
        poly[e] = poly.get(e, 0) + 1
    return QScalar.from_poly(poly, l0)


def quantum_factorial(n: int, d: int, l0: int) -> QScalar:
    out = QScalar.one(l0)
    for k in range(1, n + 1):
        out = out * quantum_integer(k, d, l0)
    return out


def exp_t_coefficient(n: int, d: int, l0: int) -> QScalar:
    """Coefficient of x**n in exp_t(x) with t = q**d; the inverse series
    exp_t(x)^-1 = exp_{t^-1}(-x) has (-1)**n times that at -d."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d == 0:
        raise ValueError("exp coefficient requires a nonzero scale d")
    tw = QScalar.q_power(Fraction(d * n * (n - 1), 2), l0)
    # [n]_t! is invariant under t -> 1/t, so the factorial may use |d|
    return tw / quantum_factorial(n, abs(d), l0)


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

def _poly_str(p: Lp, l0: int) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            term = str(abs(c))
        else:
            if e % l0 == 0:
                ex = e // l0
                base = "q" if ex == 1 else f"q^{ex}"
            else:
                f = Fraction(e, l0)
                base = f"q^({f.numerator}/{f.denominator})"
            if abs(c) == 1:
                term = base
            else:
                term = f"{abs(c)}*{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts)


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, c: str) -> None:
        got = self.take()
        if got != c:
            raise ParseError(f"expected {c!r} at {self.pos} in {self.text!r}")

    def number(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected integer at {start} in {self.text!r}")
        return int(self.text[start:self.pos])


def _parse_scalar(text: str, l0: int) -> QScalar:
    tok = _Tok(text)
    val = _parse_sum(tok, l0)
    if tok.peek():
        raise ParseError(f"trailing input at {tok.pos} in {text!r}")
    return val


def _parse_sum(tok: _Tok, l0: int) -> QScalar:
    out = _parse_product(tok, l0)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        term = _parse_product(tok, l0)
        out = out + term if op == "+" else out - term
    return out


def _parse_product(tok: _Tok, l0: int) -> QScalar:
    out = _parse_atom(tok, l0)
    while tok.peek() in ("*", "/"):
        op = tok.take()
        rhs = _parse_atom(tok, l0)
        out = out * rhs if op == "*" else out / rhs
    return out


def _parse_atom(tok: _Tok, l0: int) -> QScalar:
    c = tok.peek()
    if c == "(":
        tok.take()
        val = _parse_sum(tok, l0)
        tok.expect(")")
        return _maybe_power(tok, val, l0)
    if c == "-":
        tok.take()
        return -_parse_atom(tok, l0)
    if c == "q":
        tok.take()
        return _maybe_power(tok, QScalar.q_power(1, l0), l0)
    if c.isdigit():
        n = tok.number()
        return _maybe_power(tok, QScalar.integer(n, l0), l0)
    raise ParseError(f"unexpected {c!r} at {tok.pos} in {tok.text!r}")


def _maybe_power(tok: _Tok, base: QScalar, l0: int) -> QScalar:
    if tok.peek() != "^":
        return base
    tok.take()
    neg = False
    if tok.peek() == "(":
        tok.take()
        if tok.peek() == "-":
            tok.take()
            neg = True
        a = tok.number()
        if tok.peek() == "/":
            tok.take()
            b = tok.number()
            tok.expect(")")
            exp = Fraction(-a if neg else a, b)
            if base.num == {l0: 1} and base.is_polynomial() and len(base.num) == 1:
                return QScalar.q_power(exp, l0)
            raise ParseError("fractional exponent only allowed on q")
        tok.expect(")")
        return base ** (-a if neg else a)
    if tok.peek() == "-":
        tok.take()
        neg = True
    n = tok.number()
    return base ** (-n if neg else n)
