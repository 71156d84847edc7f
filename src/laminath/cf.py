"""Continued fractions with exact convergents, comparisons, and enclosures.

A slope theta is always represented by its coefficient stream c0; c1, c2, ...
and never by a floating-point value.  Finite streams are rational slopes;
eventually periodic streams are quadratic irrationals and evaluate exactly in
Q(sqrt(d)).  Both are stored as a preperiod and a period, empty for a finite
stream.  Arbitrary streams (a callable index -> coefficient) are allowed,
in which case comparisons fall back to refining the convergent enclosure
p_{2k}/q_{2k} < theta < p_{2k+1}/q_{2k+1}.

``partial_quotients`` of (E + F sqrt(d))/C is the one partial-quotient
stream: ``from_rational`` and the window kernel in ``flat`` read it.

Text form: "cf:[1;2,2]" for a finite fraction, "cf:[1;2]p" or
"cf:[1;2,3]periodic(2)" when a tail of the coefficient list repeats forever.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._record import record
from .errors import CertificateViolation, InvalidSlope, PrecisionExhausted
from .exactnum import Exact, QuadNum, denominator, encode, pair_sign, surd


@record(frozen=True)
class Convergent:
    """k-th truncation p/q of a continued fraction; gcd(p, q) = 1."""

    k: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _canonical_finite(coeffs: Sequence[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    if not cs:
        raise InvalidSlope("empty coefficient list")
    if cs[0] < 0:
        raise InvalidSlope("c0 must be >= 0")
    if any(c < 1 for c in cs[1:]):
        raise InvalidSlope("coefficients c1, c2, ... must be >= 1")
    if len(cs) > 1 and cs[-1] == 1:
        cs.pop()
        cs[-1] += 1
    return tuple(cs)


class ContinuedFraction:
    """A slope given by its continued-fraction coefficient source."""

    def __init__(self, coefficients=None, *, preperiod=None, period=None,
                 source: Optional[Callable[[int], int]] = None):
        self._pre: Optional[tuple[int, ...]] = None
        self._per: Optional[tuple[int, ...]] = None
        self._source = None
        if source is not None:
            self._source = source
        elif period is not None:
            pre = tuple(preperiod or ())
            per = tuple(period)
            if not per:
                raise InvalidSlope("empty period")
            if pre and pre[0] < 0 or any(c < 1 for c in pre[1:]):
                raise InvalidSlope("bad preperiod")
            if any(c < 1 for c in per) or (not pre and per[0] < 1):
                raise InvalidSlope("period coefficients must be >= 1")
            self._pre, self._per = pre, per
        elif coefficients is not None:
            self._pre, self._per = _canonical_finite(coefficients), ()
        else:
            raise InvalidSlope("no coefficient source given")
        self._value_cache: Optional[Exact] = None
        # convergent table: p_k = self._p[k + 2], q_k = self._q[k + 2], led
        # by (p_{-2}, p_{-1}) = (0, 1) and (q_{-2}, q_{-1}) = (1, 0)
        self._p = [0, 1]
        self._q = [1, 0]
        self._checked: list[Convergent] = []  # convergents() records, levels 0.. in turn

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "ContinuedFraction":
        r = Fraction(r)
        if r < 0:
            raise InvalidSlope("slopes are nonnegative")
        return cls(list(partial_quotients(r.numerator, 0, 0, r.denominator)))

    @classmethod
    def periodic(cls, preperiod, period) -> "ContinuedFraction":
        return cls(preperiod=preperiod, period=period)

    @classmethod
    def sqrt2(cls) -> "ContinuedFraction":
        return cls.periodic([1], [2])

    @classmethod
    def golden(cls) -> "ContinuedFraction":
        return cls.periodic([], [1])

    _TEXT_RE = re.compile(
        r"^cf:\[(?P<c0>\d+)(?:;(?P<rest>\d+(?:,\d+)*))?\]"
        r"(?P<suffix>p|periodic\((?P<plen>\d+)\))?$"
    )

    @classmethod
    def from_text(cls, text: str) -> "ContinuedFraction":
        s = text.strip().replace(" ", "")
        if not s.startswith("cf:"):
            # plain rational "p/q"
            return cls.from_rational(Fraction(s))
        m = cls._TEXT_RE.match(s)
        if not m:
            raise InvalidSlope(f"cannot parse continued fraction {text!r}")
        cs = [int(m.group("c0"))]
        if m.group("rest"):
            cs += [int(t) for t in m.group("rest").split(",")]
        suffix = m.group("suffix")
        if suffix is None:
            return cls(cs)
        plen = 1 if suffix == "p" else int(m.group("plen"))
        if plen < 1 or plen > len(cs):
            raise InvalidSlope("periodic suffix longer than coefficient list")
        return cls(preperiod=cs[:-plen], period=cs[-plen:])

    def to_text(self) -> str:
        if self._source is not None:
            raise ValueError("an opaque coefficient source has no text form")
        c0, *rest = self._pre + self._per
        body = str(c0) + (";" + ",".join(map(str, rest)) if rest else "")
        n = len(self._per)
        suffix = "" if not n else "p" if n == 1 else f"periodic({n})"
        return f"cf:[{body}]{suffix}"

    # -- coefficient access ---------------------------------------------------

    def coefficient(self, i: int) -> int:
        if i < 0:
            raise IndexError(i)
        if self._per is not None:
            if i < len(self._pre):
                return self._pre[i]
            if not self._per:
                raise PrecisionExhausted(f"coefficient source ends at index {len(self._pre) - 1}")
            return self._per[(i - len(self._pre)) % len(self._per)]
        try:
            c = self._source(i)
        except (IndexError, StopIteration) as exc:
            raise PrecisionExhausted(f"coefficient source ends before {i}") from exc
        if c is None:
            raise PrecisionExhausted(f"coefficient source ends before {i}")
        if (i == 0 and c < 0) or (i > 0 and c < 1):
            raise InvalidSlope(f"bad coefficient c{i}={c}")
        return int(c)

    @property
    def length(self) -> Optional[int]:
        return len(self._pre) if self._per == () else None

    # -- exact value -----------------------------------------------------------

    def value(self) -> Optional[Exact]:
        """Exact value: Fraction when finite, QuadNum when eventually periodic,
        None for opaque sources."""
        if self._value_cache is not None:
            return self._value_cache
        if self._per is None:
            return None
        val = self._periodic_value() if self._per else self.convergent(len(self._pre) - 1).value
        self._value_cache = val
        return val

    def _periodic_value(self) -> QuadNum:
        # purely periodic tail y = [per; per, ...] satisfies
        # y = (p y + p') / (q y + q') with (p, q), (p', q') the last two
        # convergents of one period block
        ps, qs = [0, 1], [1, 0]
        _recur(ps, qs, self._per)
        p, pp, q, qp = ps[-1], ps[-2], qs[-1], qs[-2]
        # q y^2 + (q' - p) y - p' = 0, take the positive root
        disc = (qp - p) * (qp - p) + 4 * q * pp
        y = QuadNum(Fraction(p - qp, 2 * q), Fraction(1, 2 * q), disc)
        # apply the preperiod Moebius transform, read off the table
        n = len(self._pre)
        self._grow(n - 1)
        num = self._p[n + 1] * y + self._p[n]
        den = self._q[n + 1] * y + self._q[n]
        return num / den

    # -- convergents -----------------------------------------------------------

    def _grow(self, k: int) -> None:
        """Extend the convergent table through index k."""
        while len(self._p) < k + 3:
            _recur(self._p, self._q, (self.coefficient(len(self._p) - 2),))

    def convergent(self, k: int) -> Convergent:
        """The k-th convergent p_k/q_k, k >= 0, from the cached table."""
        if k < 0:
            raise ValueError(f"convergent index must be >= 0, got {k}")
        self._grow(k)
        return Convergent(k, self._p[k + 2], self._q[k + 2])

    def convergents(self, k_max: int) -> list[Convergent]:
        """Convergents p_0/q_0 ... p_{k_max}/q_{k_max} by the standard
        recurrence, each checked against the approximation inequality
        |q_k theta - p_k| < 1/q_{k+1} (exactly, on theta's integer pair, when
        theta has a value; by the determinant identity otherwise).  Each
        level is checked once per slope: a checked record is kept, and a
        call checks only the levels no earlier call has."""
        self._grow(k_max)
        out = self._checked
        theta = self.value() if k_max >= len(out) else None
        if theta is not None:
            # theta = (u + v sqrt d)/D
            D = denominator(theta)
            (u, v), d = encode(theta, D), surd((theta,)) or 2
        for k in range(len(out), k_max + 1):
            cv = self.convergent(k)
            try:
                nxt = self.convergent(k + 1)
            except PrecisionExhausted:
                out.append(cv)
                continue  # the source ends: theta == p_k/q_k or unknown
            det = cv.p * nxt.q - nxt.p * cv.q
            if abs(det) != 1:
                raise CertificateViolation("convergent determinant broken")
            if theta is not None:
                # q_{k+1} (q_k theta - p_k) = (a + b sqrt d)/D lies in
                # (-1, 1) when both D + (a + b sqrt d) and D - (a + b sqrt d)
                # are positive; one is 0 only for a rational theta at
                # distance exactly 1/q_{k+1}, allowed when theta is the
                # next convergent (the last one of a finite fraction)
                a, b = nxt.q * (cv.q * u - cv.p * D), nxt.q * cv.q * v
                inside = min(pair_sign(D + a, b, d), pair_sign(D - a, -b, d))
                if inside < 0 or inside == 0 and theta != nxt.value:
                    raise CertificateViolation(
                        f"approximation inequality failed at k={cv.k}")
            out.append(cv)
        return out[:k_max + 1]

    # -- predicates --------------------------------------------------------------

    def floor_part(self) -> int:
        return self.convergent(0).p

    def compare(self, r) -> int:
        """-1, 0, or +1 as theta <, ==, > the rational r.  Decided exactly for
        finite/periodic sources, by enclosure refinement otherwise."""
        r = Fraction(r)
        v = self.value()
        if v is not None:
            return (v > r) - (v < r)
        # refine the enclosure p_{2k}/q_{2k} < theta < p_{2k+1}/q_{2k+1};
        # theta from an opaque source is treated as irrational, so equality
        # never holds
        a, b = r.numerator, r.denominator
        k = 0
        while True:
            cv = self.convergent(k)  # raises PrecisionExhausted at the end
            if k % 2 == 0:
                if a * cv.q <= cv.p * b:
                    return 1
            elif a * cv.q >= cv.p * b:
                return -1
            k += 1

    def __repr__(self):
        if self._source is not None:
            return "ContinuedFraction(source=...)"
        return f"ContinuedFraction({self.to_text()!r})"


def _recur(p: list, q: list, coeffs) -> None:
    """Append p_k = c_k p_{k-1} + p_{k-2} and q_k = c_k q_{k-1} + q_{k-2}
    to the two lists for each coefficient c_k in turn."""
    for c in coeffs:
        p.append(c * p[-1] + p[-2])
        q.append(c * q[-1] + q[-2])


def partial_quotients(E: int, F: int, d: int, C: int):
    """Partial quotients of (E + F sqrt(d)) / C, C != 0: Euclid's algorithm
    when F = 0, else the endless (P + sqrt(D)) / Q recurrence, D not a
    square."""
    if not F:
        while C:
            yield E // C
            E, C = C, E % C
        return
    D = F * F * d * C * C
    P, Q = (E * C, C * C) if F > 0 else (-E * C, -C * C)
    root = math.isqrt(D)
    while True:
        a = (P + root + (Q < 0)) // Q
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q


def q_error(theta_value: Exact, cv: Convergent) -> Exact:
    """q_k * theta - p_k, exact."""
    return cv.q * theta_value - cv.p
