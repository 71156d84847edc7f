"""Interval exchanges on integer pairs (u, v) standing for (u + v sqrt d)/D,
with no polygon: the one exact kernel (both directions, rescaled copies, the
Rauzy–Veech towers of leaf streams), the cut table behind level-set
partitions, and the inadmissible-loop search.  Every branch is an exact
integer sign test, or a test on integer fixed-point keys with a proved error
bound that leaves to the sign test what it cannot decide (``_IETKernel``,
``_exact_key``); values leave decoded as Fraction/QuadNum arithmetic gives
them (``exactnum.decode``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Optional

from ._record import record
from .errors import BudgetExhausted, CertificateViolation, CylinderDecomposition, SingularHit
from .exactnum import Exact, decode, denominator, encode, pair_sign, surd


def _slot(bounds, u, v, d) -> int:
    """Index j with bounds[j] < (u, v) < bounds[j + 1], by bisection over
    sorted integer pairs the caller knows to enclose (u, v), with exact sign
    tests; landing exactly on a bound raises SingularHit.  The exact fallback
    of an orbit's keyed slot, taken only near a cut."""
    lo, hi = 0, len(bounds) - 1
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        s = pair_sign(u - bounds[mid][0], v - bounds[mid][1], d)
        if not s:
            raise SingularHit("orbit landed on a partition cut")
        lo, hi = (mid, hi) if s > 0 else (lo, mid)
    return lo


# induction stops once every tower word has _TOWER_MIN letters (a stream steps
# the exchange through up to one tower before it copies towers), or once one
# has _TOWER_MAX (a rotation by a tiny shear grows one tower alone)
_TOWER_MIN = 512
_TOWER_MAX = 1 << 13


@record(frozen=True)
class ExchangeInterval:
    lo: Exact
    hi: Exact
    shift: Exact      # T(tau) = tau + shift here
    word: str         # crossings strictly between consecutive returns


class _IETKernel:
    """The one exact interval-exchange kernel, built from integer data.

    The exchange of (0, ``end``) moves interval i, from ``lows[i]`` up, by
    ``shifts[i]`` and reads ``words[i]`` through it: (0, 1) for a return
    map, (0, L) for its Rauzy–Veech induction (``towers``).  Pairs (u, v)
    stand for (u + v sqrt d)/D, ``d`` None when every value is rational.
    Each direction has one table: the sorted cut pairs of the intervals
    (forward) or of their images (backward), their keys and largest key
    error; per slot, the interval's index, the pair to add, its key and error.
    The key of (u, v), (u << 20) + (v R >> 10) with R = isqrt(d 2^60), lies
    within |v|/2^10 + 1 of 2^20 (u + v sqrt d): (|v| >> 10) + 2 bounds its
    error, and keys add with their errors.  An orbit keeps its state's key x
    and error bound e and takes the slot found by bisecting the cut keys for
    x when x is farther than e plus the cuts' error from both of its ends;
    otherwise ``_slot`` decides exactly and x and e are recomputed.  Landing
    exactly on a cut raises SingularHit.
    """

    _COPIES = 64   # rescaled copies kept before the memo starts over

    def __init__(self, lows, shifts, end, D: int, d: Optional[int], words):
        self.end, self.D, self.surd, self.d = end, D, d, d or 2
        self.words, self._copies, self._scale, self._R = words, {}, None, math.isqrt(self.d << 60)
        images = [((u + su, v + sv), (hu + su, hv + sv)) for (u, v), (hu, hv), (su, sv)
                  in zip(lows, lows[1:] + [end], shifts)]
        key = _exact_key([lo for lo, _ in images], self.d)
        order = sorted(range(len(lows)), key=lambda i: key(images[i][0]))
        cuts = [images[i][0] for i in order]
        if cuts + [end] != [(0, 0)] + [images[i][1] for i in order]:
            raise CertificateViolation("return-map images do not tile the edge")
        self.forward = self._table(lows + [end], list(enumerate(shifts)))
        self.backward = self._table(cuts + [end], [(i, (-shifts[i][0], -shifts[i][1]))
                                                   for i in order])

    def key(self, u: int, v: int) -> tuple:
        """The key of the pair (u, v) and the bound on its error."""
        return (u << 20) + (v * self._R >> 10), (abs(v) >> 10) + 2

    def _table(self, bounds, moves):
        """(bounds, moves as (index, du, dv, key, error), bound keys, their
        largest error)."""
        keys = [self.key(*b) for b in bounds]
        return (bounds, [(i, *s, *self.key(*s)) for i, s in moves], [k for k, _ in keys],
                max(e for _, e in keys))

    def scaled(self, m: int, d: Optional[int]) -> "_IETKernel":
        """The memoised copy over m*D, in the field sqrt ``d``."""
        copy = self._copies.get((m, d))
        if copy is None:
            if len(self._copies) >= self._COPIES:
                self._copies.clear()
            bounds, moves = self.forward[:2]
            copy = self._copies[m, d] = _IETKernel(
                [(m * u, m * v) for u, v in bounds[:-1]],
                [(m * du, m * dv) for _, du, dv, _, _ in moves],
                (m * self.end[0], m * self.end[1]), m * self.D, d, self.words)
            copy._scale = self, m
        return copy

    def fast(self, *points) -> "_IETKernel":
        """The kernel for orbits from ``points``: this one when they fit it,
        else its copy over lcm(D, their denominators), in the field of this
        kernel and them."""
        m = math.lcm(self.D, *map(denominator, points)) // self.D
        d = surd(points, self.surd)
        return self if (m, d) == (1, self.surd) else self.scaled(m, d)

    def start(self, x) -> list:
        """State of the parameter x, which must lie inside (0, end)."""
        state = list(encode(x, self.D))
        if not self.inside(state, (0, 0), self.end):
            raise SingularHit("orbit landed on a partition cut")
        return state

    def value(self, state):
        return decode(state, self.D, self.d)

    def inside(self, state, lo, hi) -> bool:
        """Exactly decide lo < state < hi for encoded bounds."""
        u, v = state
        return (pair_sign(u - lo[0], v - lo[1], self.d) > 0
                and pair_sign(hi[0] - u, hi[1] - v, self.d) > 0)

    def orbit(self, state, back: bool = False, keyed: Optional[list] = None):
        """Step ``state`` through the exchange (through its inverse when
        ``back``), updating it in place, and ``keyed`` to its key and error
        bound; yields the index of the interval each step used."""
        bounds, moves, keys, err = self.backward if back else self.forward
        inner, d, keyed = keys[1:-1], self.d, keyed or [0, 0]
        u, v = state
        x, e = self.key(u, v)
        while True:
            j = bisect_right(inner, x)
            t = e + err
            if not keys[j] + t < x < keys[j + 1] - t:
                j = _slot(bounds, u, v, d)
                x, e = self.key(u, v)
            i, du, dv, dx, de = moves[j]
            u += du
            v += dv
            state[0] = u
            state[1] = v
            keyed[0] = x = x + dx
            keyed[1] = e = e + de
            yield i

    def lasting(self, points, budget: int) -> Optional[int]:
        """The index of the first of ``points`` whose backward orbit lasts
        ``budget`` steps, or None.  For forward cuts of a rational exchange,
        None with no step taken: its states are multiples of 1/D, and the
        backward map is injective and never lands on a forward cut, so each
        such orbit repeats no state and dies within D - 1 steps."""
        for j, x in enumerate(points if self.surd is not None else ()):
            try:
                orbit = self.orbit(self.start(x), back=True)
                for _ in range(budget):
                    next(orbit)
            except SingularHit:
                continue
            return j
        return None

    def return_word(self, state, n: int) -> str:
        """The crossing word of ``n`` steps from ``state`` (moved in place):
        the words of the intervals used, each ending on the arrival letter,
        without the last one."""
        words = self.words
        return "".join([words[i] for i in islice(self.orbit(state), n)])[:-1]

    def letters(self, state, num_letters: int) -> str:
        """The first ``num_letters`` letters of the words read from ``state``
        (moved in place).  The exchange steps until the orbit lies strictly
        inside the induced interval (0, L) of ``towers``, decided on the key
        and error bound the orbit hands out and by a sign test only when they
        straddle L's key; from there each induced step copies one whole
        tower word.  An orbit point exactly on an induced cut hands the rest
        back to the exchange, so the letters, and any SingularHit, are those
        of stepping the exchange alone."""
        induced, words = self.towers, self.words
        (Lu, Lv), d = induced.end, self.d
        (lk, le), keyed = self.key(Lu, Lv), list(self.key(*state))
        out = []
        total = 0
        orbit = self.orbit(state, keyed=keyed)
        while total < num_letters and keyed[0] + keyed[1] + le > lk and (
                keyed[0] - keyed[1] - le >= lk or pair_sign(Lu - state[0], Lv - state[1], d) <= 0):
            w = words[next(orbit)]
            out.append(w)
            total += len(w)
        orbit, letters = induced.orbit(state), induced.words
        while total < num_letters:
            try:
                w = letters[next(orbit)]
            except SingularHit:   # on an induced cut: the exchange decides it
                if letters is words:
                    raise
                orbit, letters = self.orbit(state), words
                continue
            out.append(w)
            total += len(w)
        return "".join(out)[:num_letters]

    @cached_property
    def intervals(self) -> list:
        """The decoded intervals, each word less its last (arrival) letter."""
        value, (bounds, moves) = self.value, self.forward[:2]
        return [ExchangeInterval(value(lo), value(hi), value(move[1:3]), word[:-1])
                for lo, hi, move, word in zip(bounds, bounds[1:], moves, self.words)]

    @cached_property
    def towers(self) -> "_IETKernel":
        """The first-return exchange to (0, L) that exact Rauzy–Veech
        induction (Rauzy 1979; Veech 1982) reaches, on this kernel's field and
        denominator, whose words are the tower words: the letters read
        through this exchange's intervals up to the return.

        A move compares a, the last interval of the domain, with b, the
        interval whose image comes last, and shortens the domain by the
        shorter one's length.  The shorter one (the loser) is relabelled onto
        the points that now pass through b and then a before they return:
        its word becomes w(b) w(a) and its shift the sum.  The winner loses
        the loser's length, and the loser moves behind the winner in the
        order in which it came last.  Every floor of a tower lies inside one
        interval, so from a point strictly inside an induced interval one
        induced step reads its whole tower word.  Induction stops once every
        word has ``_TOWER_MIN`` letters or one has ``_TOWER_MAX``, or at an
        equal-length move (a saddle connection, where rational exchanges
        end): the towers of every stage are valid.  A rescaled copy reads
        its base's towers, scaled alike: scaling every pair by m > 0 keeps
        every sign, so the moves and the stop are the same."""
        if self._scale is not None:
            base, m = self._scale
            return base.towers.scaled(m, self.surd)
        d = self.d
        bounds, moves = self.forward[:2]
        lengths = [(u1 - u0, v1 - v0) for (u0, v0), (u1, v1) in zip(bounds, bounds[1:])]
        shifts = [(du, dv) for _, du, dv, _, _ in moves]
        words = list(self.words)
        top, bottom = list(range(len(moves))), [move[0] for move in self.backward[1]]
        Lu, Lv = self.end
        while min(map(len, words)) < _TOWER_MIN and max(map(len, words)) < _TOWER_MAX:
            a, b = top[-1], bottom[-1]
            (au, av), (bu, bv) = lengths[a], lengths[b]
            s = pair_sign(au - bu, av - bv, d)
            if s == 0:
                break
            win, lose, order = (a, b, bottom) if s > 0 else (b, a, top)
            order.pop()
            order.insert(order.index(win) + 1, lose)
            (wu, wv), (lu, lv) = lengths[win], lengths[lose]
            lengths[win] = (wu - lu, wv - lv)
            Lu, Lv = Lu - lu, Lv - lv
            shifts[lose] = (shifts[a][0] + shifts[b][0], shifts[a][1] + shifts[b][1])
            words[lose] = words[b] + words[a]
        lows, u, v = [], 0, 0
        for i in top:
            lows.append((u, v))
            u, v = u + lengths[i][0], v + lengths[i][1]
        return _IETKernel(lows, [shifts[i] for i in top], (Lu, Lv), self.D, self.surd,
                          [words[i] for i in top])


def _least_kernel(lows, shifts, D: int, d: Optional[int], words) -> _IETKernel:
    """The kernel of the exchange of (0, 1) whose lows and shifts are pairs
    over D: over the least denominator D0 = D/g of its values, g the gcd of D
    and every entry, and in sqrt ``d`` only when some value is irrational."""
    g = math.gcd(D, *(c for pair in lows + shifts for c in pair))
    lows, shifts = [(u // g, v // g) for u, v in lows], [(u // g, v // g) for u, v in shifts]
    return _IETKernel(lows, shifts, (D // g, 0), D // g,
                      d if any(v for _, v in lows + shifts) else None, words)


def _exact_key(pairs, d: int):
    """A sort key on integer pairs (u, v) that orders their values
    u + v sqrt d exactly, in the fixed-point form of the exchange kernel's
    keys: (u << K) + (v R >> L), R = isqrt(d 2^(2K + 2L)), K =
    bit_length(4B) + bit_length(d) + 4 and L = bit_length(B) + 1, B the
    largest |u| or |v| among ``pairs``.  A key lies within B/2^L + 1 < 3/2 of
    2^K (u + v sqrt d).  Two distinct values differ by at least
    1/(|du| + |dv| sqrt d), because (du + dv sqrt d)(du - dv sqrt d) is a
    nonzero integer; with |du|, |dv| <= 2B that is more than 2^(3 - K), so
    their keys differ by more than 8 - 3 and keep their order."""
    B = max((max(abs(u), abs(v)) for u, v in pairs), default=0)
    K, L = (4 * B).bit_length() + d.bit_length() + 4, B.bit_length() + 1
    R = math.isqrt(d << 2 * (K + L))
    return lambda p: (p[0] << K) + (p[1] * R >> L)


@record(frozen=True)
class PartitionInterval:
    lo: Exact
    hi: Exact
    word: str

    @property
    def length(self):
        return self.hi - self.lo


@record
class ReturnPartition:
    depth: int
    cuts: list
    intervals: list

    @property
    def max_length(self):
        return max(iv.length for iv in self.intervals)


class _CutTable:
    """Backward orbits ("strands") of the depth-1 cuts under the inverse
    exchange, as kernel pairs kept by birth depth: ``born[j]`` holds the cuts
    born at depth j + 1, up to ``depth``, where growth stops once every strand
    has died (landed on an image cut).  A query grows the strands to its
    depth and sorts the cuts born by then by one exact integer key; the gaps
    are memoised.  Level-set partitions and loops read it."""

    def __init__(self, kernel: _IETKernel):
        self.kernel = kernel
        cuts = kernel.forward[0][1:-1]
        self.born = [cuts]
        self.strands = [(p, kernel.orbit(p, back=True)) for p in map(list, cuts)]
        self.depth = 1
        self._gaps = {}

    def gap(self, depth: int) -> tuple:
        """Largest gap between 0, 1 and the cuts of depth at most ``depth``, as
        a pair over the kernel's D: a running maximum by exact sign tests."""
        if depth not in self._gaps:
            d, (bu, bv), (pu, pv) = self.kernel.d, (0, 0), (0, 0)
            for u, v in self._sorted(depth) + [(self.kernel.D, 0)]:
                if pair_sign(u - pu - bu, v - pv - bv, d) > 0:
                    bu, bv = u - pu, v - pv
                pu, pv = u, v
            self._gaps[depth] = bu, bv
        return self._gaps[depth]

    def max_gap(self, depth: int):
        return self.kernel.value(self.gap(depth))

    def cuts(self, depth: int) -> list:
        """The sorted cuts of depth 1..``depth``, as field elements; with no
        cut born at ``depth`` >= 1, every strand died sooner (on a surface,
        every backward separatrix is a saddle connection): CylinderDecomposition."""
        pts = self._sorted(depth)
        if not self.strands and depth >= self.depth:  # every strand died by then
            raise CylinderDecomposition("every backward separatrix is a saddle connection")
        return [self.kernel.value(p) for p in pts]

    def partition(self, depth: int) -> ReturnPartition:
        """The level-set partition for the ``depth``-step return word: the
        cuts of depth at most ``depth`` and, per open interval between 0, 1
        and them, its constant word, read from its midpoint over 2D."""
        cuts, half = self.cuts(depth), self.kernel.scaled(2, self.kernel.surd)
        pts = [(0, 0)] + self._sorted(depth) + [(self.kernel.D, 0)]
        ends = [Fraction(0)] + cuts + [Fraction(1)]
        return ReturnPartition(depth, cuts, [
            PartitionInterval(lo, hi, half.return_word([u + x, v + y], depth))
            for lo, hi, (u, v), (x, y) in zip(ends, ends[1:], pts, pts[1:])])

    def loop(self, height, P, k: int, return_budget: Optional[int]) -> LoopCertificate:
        """The level-k inadmissible loop at the depth-1 cut P on an edge of
        height |e_y| = ``height``, within ``return_budget`` returns (96 2^k +
        8192 by default).  If the orbit never re-enters between P and Q on the
        first side, the two intervals swap roles and the search restarts.  If
        all fail, ``progress`` holds the level, return budget, attempts and
        the deepest return depth a failed first flight reached."""
        if return_budget is None:
            return_budget = 96 * 2 ** k + 8192
        progress = dict(level=k, return_budget=return_budget, attempts=2 * len(_LOOP_OFFSETS),
                        depth=0)
        last = None
        for sgn in (1, -1):
            for off in _LOOP_OFFSETS:
                try:
                    return _try_loop(self, height, k, P, sgn, return_budget, off)
                except SingularHit as exc:
                    last = exc
                except BudgetExhausted as exc:
                    last = exc
                    progress["depth"] = max(progress["depth"], exc.progress["depth"])
        raise BudgetExhausted(f"loop construction failed at level {k}: {last}", **progress)

    def _sorted(self, depth: int) -> list:
        while self.depth < depth and self.strands:
            self.depth += 1
            alive = []
            for state, orbit in self.strands:
                try:
                    next(orbit)
                except SingularHit:
                    continue
                alive.append((state, orbit))
            self.strands = alive
            self.born.append([tuple(state) for state, _ in alive])
        pts = [p for level in self.born[:depth] for p in level]
        pts.sort(key=_exact_key(pts, self.kernel.d))
        return pts


# -- inadmissible loops -----------------------------------------------------------------

@record(frozen=True)
class LoopCertificate:
    """Closed curve whose crossing word is inadmissible, with exact measure.

    The word flows n returns from Q (a point within 2^-level of the chosen
    cut P), slides across P into the neighboring interval, takes the wrong
    one-step continuation there, flows until it re-approaches Q and slides
    home.  ``factor`` is the stretch whose occurrence in any leaf word is
    impossible: the (n-1)-step level set through its anchor is shorter than
    a third of |PQ| and lands inside I, so only w_T(I) can follow it, while
    the factor continues with w_T(I').

    ``pairs`` holds, as pairs (u, v) for (u + v sqrt d)/D over the flights'
    kernel denominator D, tau_Q, tau_return = T^depth(Q), tau_R, tau_close,
    gap_bound a = |PQ|/3, max_gap (of the (depth-1) partition) and slides
    |tau_return - tau_R| + |tau_close - tau_Q|.  They, ``measure`` = slides
    |e_y| and ``measure_constant`` = 3 |e_y| are decoded on request, once.
    """

    level: int
    word: str
    factor: str
    depth: int
    tau_P: Exact
    word_I: str
    word_I2: str
    closing_depth: int           # returns of the closing flight from R
    height: Exact
    D: int
    d: int
    pairs: tuple

    tau_Q, tau_return, tau_R, tau_close, gap_bound, max_gap, slides = (
        cached_property(lambda self, i=i: decode(self.pairs[i], self.D, self.d)) for i in range(7))
    measure = cached_property(lambda self: self.slides * self.height)
    measure_constant = cached_property(lambda self: 3 * self.height)


# base points whose orbits land exactly on a partition cut are retried at perturbed
# offsets (num, den); fresh prime denominators dodge algebraic coincidences
_LOOP_OFFSETS = ((1, 1), (6, 7), (9, 11), (10, 13), (12, 17), (15, 19), (16, 23),
                 (22, 29), (24, 31), (28, 37))


def _landings(kernel: _IETKernel, state: list, lo, hi, budget: int, steps: list):
    """Step ``state`` on ``kernel`` up to ``budget`` times, appending each
    interval index to ``steps``; yield the step count whenever lo < state <
    hi.  The window is decided on the key and error bound the orbit hands
    out, and by ``kernel.inside`` only when they cannot decide it."""
    (lk, le), (hk, he), keyed = kernel.key(*lo), kernel.key(*hi), [0, 0]
    for i in islice(kernel.orbit(state, keyed=keyed), budget):
        steps.append(i)
        x, e = keyed
        if x + e + le <= lk or x - e - he >= hk:
            continue
        if lk + le <= x - e and x + e + he <= hk or kernel.inside(state, lo, hi):
            yield len(steps)


def _try_loop(table, height, k, P, sgn, return_budget, off):
    """One attempt: Q in the interval I on side ``sgn`` of P, R in I2 on the
    other, each ``off`` = (num, den) times half of min(2^-k, |interval|) from
    P.  They and a = |PQ|/3 are pairs over N = 3 den 2^(k+1) D0, then, by the
    gcd of their entries and N/D0, over the kernel copy's m D0, m least."""
    own, (num, den) = table.kernel, off
    bounds, d, D0 = own.forward[0], own.d, own.D
    pu, pv = encode(P, D0)
    j = bounds.index((pu, pv))   # P is a depth-1 cut: two intervals meet there
    I, I2 = (j, j - 1) if sgn > 0 else (j - 1, j)
    thirds = []   # off/3 of half of min(2^-k, length) for I and I2, over N
    for (lu, lv), (hu, hv) in (bounds[I:I + 2], bounds[I2:I2 + 2]):
        lu, lv = (hu - lu) << k, (hv - lv) << k
        thirds += [D0 * num, 0] if pair_sign(lu - D0, lv, d) >= 0 else [lu * num, lv * num]
    au, av, ru, rv = thirds
    c = 3 * den << (k + 1)   # N/D0; then Q, R, a and 2^-k over N, over L = N/g
    pts = [pu * c + 3 * sgn * au, pv * c + 3 * sgn * av, pu * c - 3 * sgn * ru,
           pv * c - 3 * sgn * rv, au, av, 6 * den * D0]
    g = math.gcd(c, *pts)
    Qu, Qv, Ru, Rv, au, av, t = [x // g for x in pts]
    m, Q, R, a = c // g, (Qu, Qv), (Ru, Rv), (au, av)
    kernel = own if m == 1 else own.scaled(m, own.surd)

    # between P and Q within a of Q: as a < |PQ|, one window on Q's side
    near = Qu - sgn * au, Qv - sgn * av
    state, word_idx = list(Q), []
    for n in _landings(kernel, state, *((near, Q) if sgn > 0 else (Q, near)), return_budget,
                       word_idx):
        if n >= 2:
            gu, gv = table.gap(n - 1)
            if pair_sign(au - m * gu, av - m * gv, d) > 0:
                break
    else:
        raise BudgetExhausted(f"no admissible return depth within {return_budget}",
                              depth=len(word_idx))
    (lu, lv), (hu, hv) = kernel.forward[0][I:I + 2]   # T^n(Q) in I: |T^n(Q) - ends| > a
    if not kernel.inside(state, (lu + au, lv + av), (hu - au, hv - av)):
        raise CertificateViolation("return point lies within |PQ|/3 of its interval's ends")

    if not kernel.inside(R, *kernel.forward[0][I2:I2 + 2]):
        raise CertificateViolation("R does not lie in the neighboring interval")
    words = kernel.words   # each interval's word and the arrival letter
    if words[I2] == words[I]:
        raise CertificateViolation("the neighboring interval repeats the word of I")

    state2, tail_idx = list(R), []
    if next(_landings(kernel, state2, (Qu - t, Qv), (Qu + t, Qv), return_budget + 1,
                      tail_idx), None) is None:
        raise BudgetExhausted("closing flight exceeded the return budget", depth=n)

    piece1 = "".join([words[i] for i in word_idx])
    word = piece1 + "".join([words[i] for i in tail_idx])
    factor = piece1[len(words[word_idx[0]]) - 1:] + words[tail_idx[0]]
    if words[tail_idx[0]] != words[I2]:
        raise CertificateViolation("closing flight does not start in R's interval")
    if factor not in word:
        raise CertificateViolation("inadmissible factor missing from the loop word")

    su = sv = 0   # the slides |T^n(Q) - R| + |close - Q|, below 3 2^-k as |e_y| > 0
    for xu, xv in ((state[0] - Ru, state[1] - Rv), (state2[0] - Qu, state2[1] - Qv)):
        s = pair_sign(xu, xv, d)
        su, sv = su + s * xu, sv + s * xv
    if not pair_sign(3 * kernel.D - (su << k), -(sv << k), d) > 0:
        raise CertificateViolation("loop measure exceeds its structural bound")

    return LoopCertificate(k, word, factor, n, P, words[I][:-1], words[I2][:-1],
                           len(tail_idx), height, kernel.D, d,
                           (Q, tuple(state), R, tuple(state2), a, (m * gu, m * gv), (su, sv)))
