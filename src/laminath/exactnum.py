"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

A ``QuadNum`` is the integer triple (u, v, D), D > 0 and gcd(u, v, D) = 1,
standing for (u + v*sqrt(d))/D = a + b*sqrt(d) over a square-free d >= 2.
Arithmetic costs one gcd per result and every predicate (sign, comparison,
floor) is integer arithmetic; nothing here ever rounds.  ``int`` and
``Fraction`` values interoperate freely as elements with b = 0.

One type rule: arithmetic (``+ - * / **``, unary minus, ``abs``) returns a
``QuadNum`` exactly when the result's b is nonzero, and a ``Fraction``
otherwise (``x ** 0`` is ``Fraction(1)``).  The constructor is the one way to
get a ``QuadNum`` with b = 0; it compares, hashes and prints as its
``Fraction``.

Integer kernels encode x as the pair (u, v) with x = (u + v sqrt d)/D over
any D that ``denominator(x)`` (a QuadNum's own D) divides: ``encode`` gives
the pair, ``decode`` the element by the same type rule, and ``surd`` the one
field of a set of values.

Serialization uses strings like "7/5", "2-1*sqrt2", "-1/2+3/4*sqrt5"; decimal
forms are never produced.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

Exact = Union[int, Fraction, "QuadNum"]

_SQUAREFREE_CACHE: dict = {}


def pair_sign(u: int, v: int, d: int) -> int:
    """Sign of u + v sqrt d for integers u, v and a non-square d."""
    if u >= 0 and v >= 0:
        return 1 if u or v else 0
    if u <= 0 and v <= 0:
        return -1
    return 1 if (u * u > d * v * v) == (u > 0) else -1


def pair_floor(A: int, B: int, d: int, C: int) -> int:
    """floor((A + B sqrt(d)) / C), C > 0."""
    t = B * B * d
    root = math.isqrt(t)
    if B < 0:
        root = -root - (root * root != t)
    return (A + root) // C


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = d * f**2 with d square-free; returns (d, f).  Requires n >= 1.

    Trial division runs only while m**3 <= n, so its cost grows as n^(1/3):
    what is left then has no prime factor below its cube root, hence at most
    two, and is either a perfect square or square-free."""
    if n < 1:
        raise ValueError("need a positive integer")
    d, f = 1, 1
    m = 2
    while m ** 3 <= n:
        while n % (m * m) == 0:
            n //= m * m
            f *= m
        if n % m == 0:
            n //= m
            d *= m
        m += 1
    r = math.isqrt(n)
    if r * r == n:
        return d, f * r
    return d * n, f


def _fold(u: int, v: int, d: int) -> tuple[int, int, int]:
    """u + v sqrt d over a square-free d; a rational sqrt d folds into u."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if d not in _SQUAREFREE_CACHE:
        _SQUAREFREE_CACHE[d] = squarefree_decompose(d)
    d0, f = _SQUAREFREE_CACHE[d]
    return (u + v * f, 0, 2) if d0 == 1 else (u, v * f, d0)


def _make(u: int, v: int, D: int, d: int) -> Exact:
    """(u + v sqrt d)/D, D != 0, by the type rule."""
    if not v:
        return Fraction(u, D)
    g = math.gcd(u, v, D) if D > 0 else -math.gcd(u, v, D)
    x = _new(QuadNum)
    _store(x, (u // g, v // g, D // g, d))
    return x


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational x."""
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return x.numerator, x.denominator


class QuadNum:
    """Immutable element a + b*sqrt(d) of Q(sqrt(d))."""

    __slots__ = ("_t",)   # the reduced (u, v, D, d)

    def __init__(self, a, b=0, d=2):
        (n, m), (r, s) = _ratio(a), _ratio(b)
        D = math.lcm(m, s)
        u, v = n * (D // m), r * (D // s)
        if v:
            u, v, d = _fold(u, v, d)
        g = math.gcd(u, v, D)
        _store(self, (u // g, v // g, D // g, d))

    def __setattr__(self, *args):
        raise AttributeError("QuadNum is immutable")

    a = property(lambda self: Fraction(self._t[0], self._t[2]))
    b = property(lambda self: Fraction(self._t[1], self._t[2]))
    d = property(lambda self: self._t[3])

    def _align(self, other):
        """(u, v, D, p, q, E, d): both triples over their common field."""
        u, v, D, d = self._t
        if isinstance(other, QuadNum):
            p, q, E, e = other._t
            if q and e != d:
                if v:
                    raise ValueError(f"mixed fields sqrt{d} and sqrt{e}")
                d = e
            return u, v, D, p, q, E, d
        if isinstance(other, (int, Fraction)):
            return u, v, D, other.numerator, 0, other.denominator, d

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if (al := self._align(other)) is None:
            return NotImplemented
        u, v, D, p, q, E, d = al
        return _make(u * E + p * D, v * E + q * D, D * E, d)

    __radd__ = __add__

    def __neg__(self):
        u, v, D, d = self._t
        return _make(-u, -v, D, d)

    def __sub__(self, other):
        if (al := self._align(other)) is None:
            return NotImplemented
        u, v, D, p, q, E, d = al
        return _make(u * E - p * D, v * E - q * D, D * E, d)

    def __rsub__(self, other):
        if (al := self._align(other)) is None:
            return NotImplemented
        u, v, D, p, q, E, d = al
        return _make(p * D - u * E, q * D - v * E, D * E, d)

    def __mul__(self, other):
        if (al := self._align(other)) is None:
            return NotImplemented
        u, v, D, p, q, E, d = al
        return _make(u * p + v * q * d, u * q + v * p, D * E, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (al := self._align(other)) is None:
            return NotImplemented
        u, v, D, p, q, E, d = al
        norm = p * p - q * q * d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        # multiply by the conjugate of the divisor over its norm
        return _make(E * (u * p - v * q * d), E * (v * p - u * q), D * norm, d)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadNum(other, 0, self._t[3]) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        u, v, D, d = self._t
        pu, pv = 1, 0
        for _ in range(n):
            pu, pv = pu * u + pv * v * d, pu * v + pv * u
        return _make(pu, pv, D ** n, d)

    def __abs__(self):
        return -self if self.sign() < 0 else self if self._t[1] else self.a

    # -- exact predicates ----------------------------------------------------

    def sign(self) -> int:
        u, v, _, d = self._t
        return pair_sign(u, v, d)

    def is_zero(self) -> bool:
        return not (self._t[0] or self._t[1])

    __bool__ = lambda self: not self.is_zero()

    def _cmp(self, other):
        """The sign of self - other; NotImplemented for another operand type."""
        if (al := self._align(other)) is None:
            return NotImplemented
        u, v, D, p, q, E, d = al
        return pair_sign(u * E - p * D, v * E - q * D, d)

    def __eq__(self, other):
        if isinstance(other, (QuadNum, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    __lt__ = lambda self, other: s if (s := self._cmp(other)) is NotImplemented else s < 0
    __le__ = lambda self, other: s if (s := self._cmp(other)) is NotImplemented else s <= 0
    __gt__ = lambda self, other: s if (s := self._cmp(other)) is NotImplemented else s > 0
    __ge__ = lambda self, other: s if (s := self._cmp(other)) is NotImplemented else s >= 0

    def __hash__(self):
        # equal elements share their reduced triple
        return hash(self._t) if self._t[1] else hash(self.a)

    def floor(self) -> int:
        """Exact floor, decided with integer square roots only."""
        u, v, D, d = self._t
        return pair_floor(u, v, d, D)

    def __float__(self):
        u, v, D, d = self._t
        return u / D + v / D * math.sqrt(d)

    def __repr__(self):
        return f"QuadNum({format_exact(self)!r})"


_new, _store = object.__new__, QuadNum._t.__set__   # past the immutability guard


def exact_floor(x: Exact) -> int:
    if isinstance(x, QuadNum):
        return x.floor()
    n, m = _ratio(x)
    return n // m


def frac_part(x: Exact) -> Exact:
    return x - exact_floor(x)


# -- integer pairs -----------------------------------------------------------

def denominator(x: Exact) -> int:
    """The least D over which x encodes (a QuadNum's own D)."""
    return x._t[2] if isinstance(x, QuadNum) else _ratio(x)[1]


def surd(values, d: Optional[int] = None) -> Optional[int]:
    """The d of the quadratic field of the values (and of sqrt ``d``), or None
    when all are rational; mixing two fields is a ValueError, as in
    arithmetic."""
    ds = {d, *(v._t[3] for v in values if isinstance(v, QuadNum) and v._t[1])} - {None}
    if len(ds) > 1:
        raise ValueError("mixed fields " + " and ".join(f"sqrt{e}" for e in sorted(ds)))
    return ds.pop() if ds else None


def encode(x: Exact, den: int) -> tuple[int, int]:
    """The integer pair (u, v) with x = (u + v sqrt d)/den."""
    if isinstance(x, QuadNum):
        u, v, D, _ = x._t
    else:
        (u, D), v = _ratio(x), 0
    if den % D:
        raise ValueError("denominator does not divide the table denominator")
    return u * (den // D), v * (den // D)


def decode(pair, den: int, d: int) -> Exact:
    """The element (u + v sqrt d)/den of an integer pair, by the type rule."""
    u, v = pair
    if not v:
        return Fraction(u, den)
    u, v, d = _fold(u, v, d)
    return _make(u, v, den, d)


# -- serialization ----------------------------------------------------------

def _fmt_ratio(n: int, m: int) -> str:
    """n/m, m > 0, in lowest terms: "n" or "n/m"."""
    g = math.gcd(n, m)
    return str(n // g) if m == g else f"{n // g}/{m // g}"


def format_exact(x: Exact) -> str:
    """Render exactly: "7/5", "2-1*sqrt2", "-1/2+3/4*sqrt5".  Never decimal."""
    if not isinstance(x, QuadNum):
        return _fmt_ratio(*_ratio(x))
    u, v, D, d = x._t
    if not v:
        return _fmt_ratio(u, D)
    tail = f"{_fmt_ratio(abs(v), D)}*sqrt{d}"
    if not u:
        return tail if v > 0 else f"-{tail}"
    return f"{_fmt_ratio(u, D)}{'+' if v > 0 else '-'}{tail}"


_QUAD_RE = re.compile(
    r"^(?:(?P<a>[+-]?\d+(?:/\d+)?)(?P<sign>[+-]))?(?P<b>[+-]?\d+(?:/\d+)?)\*sqrt(?P<d>\d+)$"
)


def parse_exact(text: str) -> Exact:
    """Parse the format produced by :func:`format_exact`; anything else, a
    non-string or a zero denominator too, raises ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"an exact value is a string, got {text!r}")
    s = text.strip().replace(" ", "")
    m = _QUAD_RE.match(s)
    if "sqrt" in s and not m:
        raise ValueError(f"cannot parse exact value {text!r}")
    try:
        if not m:
            return Fraction(s)
        a = Fraction(m.group("a") or 0)
        b = Fraction(m.group("b"))
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    return QuadNum(a, -b if m.group("sign") == "-" else b, int(m.group("d")))
