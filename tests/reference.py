"""Helpers the tests call but no certificate or CLI command needs: the
saddle connections of a surface, leaf words sampled at evenly spaced
heights, and the slow reference ``QuadNum`` (a Fraction pair a, b) with its
``format_exact``.  The first two read the library's kernels."""

import math
from fractions import Fraction

from laminath import tsurface as ts
from laminath.errors import SingularHit
from laminath.exactnum import pair_floor, pair_sign, squarefree_decompose


def saddle_connections(surface, max_steps: int = 4096):
    """Horizontal separatrices terminating at a vertex within the budget,
    with crossing words; horizontal inner edges are edge connections."""
    out = [ts.SaddleConnection("edge", surface.corner_class[p, k],
                               surface.corner_class[p, (k + 1) % len(surface.polygons[p])], "", 0)
           for p, k in surface.slot_info if surface._edge_pairs((p, k))[2:] == (0, 0)]
    for corner in surface.corner_germs(+1):
        conn = ts._germ_connection(surface, corner, max_steps)
        if conn is not None:
            out.append(conn)
    return out


def sample_leaf_words(surface, trans, num_letters: int, heights: int):
    """Leaf-word prefixes from the start parameters j/(heights + 1) on the
    transversal; start points landing exactly on a partition cut are skipped."""
    if isinstance(trans, int):
        trans = ts.Transversal(surface, trans)
    iet = trans.return_map()
    for tau in (Fraction(j, heights + 1) for j in range(1, heights + 1)):
        try:
            yield tau, iet.letter_stream(tau, num_letters)
        except SingularHit:
            continue


def _element(a: Fraction, b, d: int):
    """a + b sqrt(d) by the type rule: a QuadNum when b (after folding any
    square factor of d) is nonzero, else the Fraction a."""
    if b:
        x = QuadNum(a, b, d)
        if x.b:
            return x
        a = x.a
    return a


class QuadNum:
    """The element a + b*sqrt(d) of Q(sqrt(d)) kept as the Fraction pair
    (a, b): the reference for ``laminath.exactnum.QuadNum``, which keeps the
    integer triple (u, v, D)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=2):
        a, b = Fraction(a), Fraction(b)
        if b:
            if d < 2:
                raise ValueError("d must be >= 2")
            d0, f = squarefree_decompose(d)
            if d0 == 1:
                # sqrt(d) rational: fold into the rational part
                a, b, d = a + b * f, Fraction(0), 2
            else:
                b, d = b * f, d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadNum is immutable")

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
        a, b = self.a, self.b
        return pair_floor(a.numerator * b.denominator, b.numerator * a.denominator,
                          self.d, a.denominator * b.denominator)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)


def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exact(x) -> str:
    """"7/5", "2-1*sqrt2", "-1/2+3/4*sqrt5" for a reference QuadNum or a rational."""
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
