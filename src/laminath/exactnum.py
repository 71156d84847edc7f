"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

A ``QuadNum`` is a + b*sqrt(d) with rational a, b and a fixed square-free
integer d >= 2.  Every predicate (sign, comparison, floor) is decided by
integer arithmetic; nothing here ever rounds.  Plain ``Fraction`` and ``int``
values interoperate freely and are treated as elements with b = 0.

Serialization uses strings like "7/5", "2-1*sqrt2", "-1/2+3/4*sqrt5"; decimal
forms are never produced.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Exact = Union[int, Fraction, "QuadNum"]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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
    """Write n = d * f**2 with d square-free; returns (d, f).  Requires n >= 1."""
    if n < 1:
        raise ValueError("need a positive integer")
    d, f = 1, 1
    for p in _SMALL_PRIMES:
        while n % (p * p) == 0:
            n //= p * p
            f *= p
        if n % p == 0:
            n //= p
            d *= p
    # remaining part has no factor from the small primes; strip square part
    m = 2
    while m * m <= n:
        if n % (m * m) == 0:
            n //= m * m
            f *= m
        else:
            m += 1
    return d * n, f


class QuadNum:
    """Immutable element a + b*sqrt(d) of Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=2):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if b:
            if d < 2:
                raise ValueError("d must be >= 2")
            if d not in _SQUAREFREE_CACHE:
                _SQUAREFREE_CACHE[d] = squarefree_decompose(d)
            d0, f = _SQUAREFREE_CACHE[d]
            if d0 == 1:
                # sqrt(d) rational: fold into the rational part
                a += b * f
                b = Fraction(0)
                d = 2
            elif f == 1:
                d = d0
            else:
                b *= f
                d = d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadNum is immutable")

    # -- coercion -----------------------------------------------------------

    def _align(self, other):
        """Both operands as (a, b) pairs over a common square-free d."""
        if isinstance(other, QuadNum):
            if self.b != 0 and other.b != 0 and self.d != other.d:
                raise ValueError(f"mixed fields sqrt{self.d} and sqrt{other.d}")
            d = self.d if self.b != 0 else other.d
            return self.a, self.b, other.a, other.b, d
        if isinstance(other, (int, Fraction)):
            return self.a, self.b, Fraction(other), Fraction(0), self.d
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return QuadNum(ax + ay, bx + by, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.d)

    def __sub__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return QuadNum(ax - ay, bx - by, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return QuadNum(ax * ay + bx * by * d, ax * by + bx * ay, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        norm = ay * ay - by * by * d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        # multiply by the conjugate of the divisor over its norm
        ia, ib = ay / norm, -by / norm
        return QuadNum(ax * ia + bx * ib * d, ax * ib + bx * ia, d)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadNum(other, 0, self.d) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadNum(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- exact predicates ----------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        return pair_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadNum):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        if isinstance(other, (QuadNum, int, Fraction)):
            return self._cmp(other) == 0
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def floor(self) -> int:
        """Exact floor, decided with integer square roots only."""
        a, b = self.a, self.b
        return pair_floor(a.numerator * b.denominator, b.numerator * a.denominator,
                          self.d, a.denominator * b.denominator)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadNum({format_exact(self)!r})"


def exact_floor(x: Exact) -> int:
    if isinstance(x, QuadNum):
        return x.floor()
    x = Fraction(x)
    return x.numerator // x.denominator


def frac_part(x: Exact) -> Exact:
    return x - exact_floor(x)


# -- serialization ----------------------------------------------------------

def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exact(x: Exact) -> str:
    """Render exactly: "7/5", "2-1*sqrt2", "-1/2+3/4*sqrt5".  Never decimal."""
    if isinstance(x, QuadNum):
        if x.b == 0:
            return _fmt_fraction(x.a)
        b_abs = _fmt_fraction(abs(x.b))
        tail = f"{b_abs}*sqrt{x.d}"
        if x.a == 0:
            return tail if x.b > 0 else f"-{tail}"
        sign = "+" if x.b > 0 else "-"
        return f"{_fmt_fraction(x.a)}{sign}{tail}"
    return _fmt_fraction(Fraction(x))


_QUAD_RE = re.compile(
    r"^(?:(?P<a>[+-]?\d+(?:/\d+)?)(?P<sign>[+-]))?(?P<b>[+-]?\d+(?:/\d+)?)\*sqrt(?P<d>\d+)$"
)


def parse_exact(text: str) -> Exact:
    """Parse the format produced by :func:`format_exact`."""
    s = text.strip().replace(" ", "")
    if "sqrt" not in s:
        return Fraction(s)
    m = _QUAD_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse exact value {text!r}")
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = Fraction(m.group("b"))
    if m.group("sign") == "-":
        b = -b
    return QuadNum(a, b, int(m.group("d")))
