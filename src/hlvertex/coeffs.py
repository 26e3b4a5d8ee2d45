"""Exact coefficient arithmetic in the variable q.

``QPoly`` is a sparse Laurent polynomial in q with arbitrary-precision
integer coefficients.  ``QRat`` is a ratio of two such polynomials kept in
canonical reduced form: the denominator is an ordinary polynomial with a
nonzero constant term and positive leading coefficient, and numerator and
denominator share no polynomial factor and no integer content.  Canonical
form makes equality and hashing structural, which everything downstream
(memo caches, certificates, the test suites) relies on.

Values are immutable; all operations return fresh objects.
"""

from __future__ import annotations

import math
from operator import index


class QPoly:
    """Sparse integer Laurent polynomial in q."""

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                try:
                    v = index(v)
                    if v:
                        c[index(e)] = v
                except TypeError:
                    what, bad = ("exponent", e) if isinstance(v, int) else ("coefficient", v)
                    raise ValueError(f"QPoly {what} {bad!r} is not an integer") from None
        self._c = c
        self._hash = None

    @classmethod
    def _raw(cls, c: dict) -> "QPoly":
        """A QPoly over c, int exponents to nonzero ints, taken as is."""
        out = cls.__new__(cls)
        out._c, out._hash = c, None
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return _QP_ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _QP_ONE

    @classmethod
    def q(cls) -> "QPoly":
        return _QP_Q

    @classmethod
    def const(cls, n: int) -> "QPoly":
        return cls({0: n})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def items(self):
        """Terms as (exponent, coefficient), decreasing exponent."""
        return sorted(self._c.items(), reverse=True)

    def degree(self) -> int:
        if not self._c:
            raise ValueError("degree of zero polynomial")
        return max(self._c)

    def valuation(self) -> int:
        if not self._c:
            raise ValueError("valuation of zero polynomial")
        return min(self._c)

    def leading_coeff(self) -> int:
        return self._c[self.degree()]

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def content(self) -> int:
        return math.gcd(*self._c.values())

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        other = _as_qpoly(other)
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return QPoly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, QPoly)):
            return NotImplemented
        return self + (-_as_qpoly(other))

    def __rsub__(self, other):
        return _as_qpoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            return QPoly._raw({} if other == 0 else {e: v * other for e, v in self._c.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return QPoly._raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use QRat")
        out = _QP_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shifted(self, e: int) -> "QPoly":
        """Multiply by q**e."""
        if e == 0 or not self._c:
            return self
        return QPoly._raw({k + e: v for k, v in self._c.items()})

    def subs_qpower(self, k: int) -> "QPoly":
        """Substitute q -> q**k (k >= 1)."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        if k == 1:
            return self
        return QPoly._raw({e * k: v for e, v in self._c.items()})

    def evaluate(self, x):
        """Exact value, a Fraction, at a rational value of q."""
        from fractions import Fraction  # on use: it imports decimal
        x = Fraction(x)
        total = Fraction(0)
        for e, v in self._c.items():
            if e < 0 and x == 0:
                raise ZeroDivisionError("pole at q=0 (negative exponent)")
            total += v * x**e
        return total

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, v in self.items():
            if e == 0:
                body = str(abs(v))
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                body = qpow if abs(v) == 1 else f"{abs(v)}*{qpow}"
            sign = "-" if v < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"QPoly({self})"

    def to_json(self) -> dict:
        return {str(e): v for e, v in self.items()}

    @classmethod
    def from_json(cls, data: dict) -> "QPoly":
        return cls({int(e): int(v) for e, v in data.items()})


_QP_ZERO = QPoly()
_QP_ONE = QPoly({0: 1})
_QP_Q = QPoly({1: 1})


def _as_qpoly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QPoly")


# -- polynomial gcd over Z[q] (primitive remainder sequence) ----------


def _dense(p: QPoly) -> list:
    """Integer coefficients of an ordinary polynomial, lowest degree first."""
    out = [0] * (p.degree() + 1)
    for e, v in p._c.items():
        out[e] = v
    return out


def _primitive(a: list) -> list:
    """A trimmed nonzero integer list divided by its content, leading
    coefficient made positive."""
    g = math.gcd(*a)
    return [v // (g if a[-1] > 0 else -g) for v in a]


def _pseudo_rem(a: list, b: list) -> list:
    """Primitive part of a pseudo-remainder of a by b (trimmed integer
    lists, b's leading coefficient positive); empty when b divides a.  Each
    step scales a by the least factor that lets b cancel its top term."""
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    while len(a) > db:
        top = a.pop()
        if top:
            g = math.gcd(top, lead)
            if g != lead:
                a = [v * (lead // g) for v in a]
            shift, top = len(a) - db, top // g
            for i in range(db):
                a[shift + i] -= top * b[i]
    while a and not a[-1]:
        a.pop()
    return _primitive(a) if a else a


def _poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Primitive gcd in Z[q] of two nonzero ordinary polynomials, positive
    leading coefficient, by the primitive remainder sequence (Collins;
    Knuth, TAOCP 4.6.1)."""
    A, B = _primitive(_dense(a)), _primitive(_dense(b))
    while B:
        if len(B) == 1:
            return _QP_ONE
        A, B = B, _pseudo_rem(A, B)
    return QPoly(dict(enumerate(A)))


def _exact_div(a: QPoly, g: QPoly) -> QPoly:
    """Exact division a / g for ordinary polynomials by integer long
    division; g must divide a with an integral quotient."""
    a, b = _dense(a), _dense(g)
    db, lead = len(b) - 1, b[-1]
    quot = {}
    while len(a) > db:
        top = a.pop()
        if top:
            f, r = divmod(top, lead)
            if r:
                raise ArithmeticError("non-integral quotient")
            shift = len(a) - db
            quot[shift] = f
            for i in range(db):
                a[shift + i] -= f * b[i]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return QPoly._raw(quot)


class QRat:
    """Rational function in q, a canonical ratio of two QPoly values."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, num, den=None):
        num = _as_qpoly(num)
        den = _QP_ONE if den is None else _as_qpoly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._num, self._den = _QP_ZERO, _QP_ONE
        elif den.is_one():
            self._num, self._den = num, _QP_ONE
        else:
            vn, vd = num.valuation(), den.valuation()
            a, b = num.shifted(-vn), den.shifted(-vd)
            g = _poly_gcd(a, b)
            if not g.is_one():
                a, b = _exact_div(a, g), _exact_div(b, g)
            cg = math.gcd(a.content(), b.content())
            if b.leading_coeff() < 0:
                cg = -cg
            if cg != 1:
                a = QPoly._raw({e: v // cg for e, v in a._c.items()})
                b = QPoly._raw({e: v // cg for e, v in b._c.items()})
            self._num = a.shifted(vn - vd)
            self._den = b
        self._hash = None

    @classmethod
    def _raw(cls, num: QPoly, den: QPoly) -> "QRat":
        out = cls.__new__(cls)
        out._num, out._den, out._hash = num, den, None
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QRat":
        return _QR_ZERO

    @classmethod
    def one(cls) -> "QRat":
        return _QR_ONE

    @classmethod
    def q(cls) -> "QRat":
        return _QR_Q

    # -- inspection ---------------------------------------------------

    @property
    def num(self) -> QPoly:
        return self._num

    @property
    def den(self) -> QPoly:
        return self._den

    def is_zero(self) -> bool:
        return not self._num._c

    def is_one(self) -> bool:
        return self._num.is_one() and self._den.is_one()

    def integral_polynomial(self):
        """The value as a QPoly if it lies in Z[q], else None."""
        if not self._den.is_one():
            return None
        if not self._num.is_zero() and self._num.valuation() < 0:
            return None
        return self._num

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_qrat(other)
        if self._den.is_one() and other._den.is_one():
            return QRat._raw(self._num + other._num, _QP_ONE)
        return QRat(self._num * other._den + other._num * self._den,
                    self._den * other._den)

    __radd__ = __add__

    def __neg__(self):
        return QRat._raw(-self._num, self._den)

    def __sub__(self, other):
        return self + (-_as_qrat(other))

    def __rsub__(self, other):
        return _as_qrat(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int) and self._den.is_one():
            if other == 1:
                return self
            return QRat._raw(self._num * other, _QP_ONE)
        other = _as_qrat(other)
        if self._den.is_one() and other._den.is_one():
            return QRat._raw(self._num * other._num, _QP_ONE)
        return QRat(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qrat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return QRat(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other):
        return _as_qrat(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return _QR_ONE / self ** (-n)
        # powers of a coprime, canonical pair stay coprime and canonical
        return QRat._raw(self._num ** n, self._den ** n)

    def subs_qpower(self, k: int) -> "QRat":
        """Substitute q -> q**k (k >= 1)."""
        if k == 1:
            return self
        return QRat(self._num.subs_qpower(k), self._den.subs_qpower(k))

    def specialize(self, value):
        """Exact value, a Fraction, at a rational value of q."""
        from fractions import Fraction  # on use: it imports decimal
        value = Fraction(value)
        d = self._den.evaluate(value)
        if d == 0:
            raise ZeroDivisionError(f"pole at q={value}")
        return self._num.evaluate(value) / d

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, QPoly)):
            other = _as_qrat(other)
        if not isinstance(other, QRat):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._num, self._den))
        return self._hash

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if self._den.is_one():
            return str(self._num)
        ns = str(self._num)
        if len(self._num._c) > 1:
            ns = f"({ns})"
        ds = str(self._den)
        if len(self._den._c) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"QRat({self})"

    def to_json(self) -> dict:
        return {"num": self._num.to_json(), "den": self._den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QRat":
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))


_QR_ZERO = QRat._raw(_QP_ZERO, _QP_ONE)
_QR_ONE = QRat._raw(_QP_ONE, _QP_ONE)
_QR_Q = QRat._raw(_QP_Q, _QP_ONE)


def _add_term(terms: dict, key, value) -> None:
    """Add a QPoly or QRat value into terms[key], dropping the entry when
    a sum cancels to zero; a new key takes the value as it is.  Kept
    private so that namespace-level instrumentation leaves this inner-loop
    helper to its callers' time."""
    old = terms.get(key)
    if old is None:
        terms[key] = value
        return
    value = old + value
    if value.is_zero():
        del terms[key]
    else:
        terms[key] = value


def _add_slot(dst: dict, terms, c: int, shift: int = 0) -> None:
    """dst += c * q**shift * terms, on Z[q] slots: exponent -> int dicts,
    terms as (exponent, coefficient) pairs.  Zeros are left in dst."""
    for e, v in terms:
        e += shift
        dst[e] = dst.get(e, 0) + c * v


def _as_qrat(x) -> QRat:
    if isinstance(x, QRat):
        return x
    if isinstance(x, (int, QPoly)):
        return QRat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QRat")
