"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

A ``QuadNum`` is a + b*sqrt(d) with rational a, b and a fixed square-free
integer d >= 2.  Every predicate (sign, comparison, floor) is decided by
integer arithmetic; nothing here ever rounds.  Plain ``Fraction`` and ``int``
values interoperate freely and are treated as elements with b = 0.

One type rule: arithmetic (``+ - * / **``, unary minus, ``abs``) returns a
``QuadNum`` exactly when the result's b is nonzero, and a ``Fraction``
otherwise (``x ** 0`` is ``Fraction(1)``).  The constructor is the one way to
get a ``QuadNum`` with b = 0; it compares, hashes and prints as its
``Fraction``.

Integer kernels encode an element x as the integer pair (u, v) with
x = (u + v sqrt d)/D, over any D that ``denominator(x)`` divides: ``encode``
gives the pair, ``decode`` the element by the same type rule, and ``surd``
the one field of a set of values.

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


def _element(a: Fraction, b, d: int) -> Exact:
    """a + b sqrt(d) by the type rule: a QuadNum when b (after folding any
    square factor of d) is nonzero, else the Fraction a."""
    if b:
        x = QuadNum(a, b, d)
        if x.b:
            return x
        a = x.a
    return a


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
        return _element(ax + ay, bx + by, d)

    __radd__ = __add__

    def __neg__(self):
        return _element(-self.a, -self.b, self.d)

    def __sub__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return _element(ax - ay, bx - by, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        al = self._align(other)
        if al is None:
            return NotImplemented
        ax, bx, ay, by, d = al
        return _element(ax * ay + bx * by * d, ax * by + bx * ay, d)

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
        return _element(ax * ia + bx * ib * d, ax * ib + bx * ia, d)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QuadNum(other, 0, self.d) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        if not self.b:
            return abs(self.a)
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


# -- integer pairs -----------------------------------------------------------

def parts(x: Exact) -> tuple[Fraction, Fraction]:
    """(a, b) with x = a + b sqrt d."""
    if isinstance(x, QuadNum):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def denominator(x: Exact) -> int:
    """The least D over which x encodes: lcm of the denominators of a and b."""
    a, b = parts(x)
    return math.lcm(a.denominator, b.denominator)


def surd(values, d: Optional[int] = None) -> Optional[int]:
    """The d of the quadratic field of the values (and of sqrt ``d``), or None
    when all are rational; mixing two fields is a ValueError, as in
    arithmetic."""
    ds = {d, *(v.d for v in values if isinstance(v, QuadNum) and v.b != 0)} - {None}
    if len(ds) > 1:
        raise ValueError("mixed fields " + " and ".join(f"sqrt{e}" for e in sorted(ds)))
    return ds.pop() if ds else None


def encode(x: Exact, den: int) -> tuple[int, int]:
    """The integer pair (u, v) with x = (u + v sqrt d)/den."""
    a, b = parts(x)
    if den % a.denominator or den % b.denominator:
        raise ValueError("denominator does not divide the table denominator")
    return (a.numerator * (den // a.denominator),
            b.numerator * (den // b.denominator))


def decode(pair, den: int, d: int) -> Exact:
    """The element (u + v sqrt d)/den of an integer pair, by the type rule."""
    u, v = pair
    return _element(Fraction(u, den), Fraction(v, den), d) if v else Fraction(u, den)


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
