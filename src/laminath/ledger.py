"""The exact measure ledger of an exotic ray, on the torus and on surfaces.

An exotic ray concatenates certified inadmissible words over strictly
increasing levels, joined by short connectors.  A stage source supplies a
certificate per level, with its exact ``measure`` and its ``word``: measured
segments on the torus, level-k loops on a surface.  The ledger bounds the
ray's measure (finite intersection), ``min_full_window`` puts a whole stage
word, hence an inadmissible factor, in every window (not asymptotic to any
leaf), and thinned tails have distinct ``tail_measure_signature``s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional

from ._record import record
from .exactnum import Exact


@record(frozen=True)
class ExoticStage:
    """One kept stage of an exotic ray with the running exact ledger."""

    level: int
    certificate: Any            # has the stage's exact ``measure``, ``word`` and its ``length``
    connector: Exact            # hop from the previous stage's end
    partial_measure: Exact      # stage measures + connectors so far, exact
    partial_bound: Exact        # sum of the bound steps so far


def exotic_stages(levels: Iterable[int], certify: Callable[[int], Any],
                  join: Callable[[Optional[ExoticStage], int, Any], tuple],
                  tail: Callable[[int], Exact], *, thin: bool = False,
                  skipped: Optional[list] = None) -> Iterator[ExoticStage]:
    """Yield the ledger stage of each kept level, lazily and in order.

    ``certify(k)`` is level k's certificate, ``join(prev, k, cert)`` the
    connector from the previous kept stage (None for the first) and the bound
    step the stage adds, and ``tail(k)`` a bound on the total measure of the
    stages from level k on, which holds only for strictly increasing levels:
    anything else raises ValueError.  With ``thin=True`` level k is kept only
    when tail(k) < (last kept measure)/3, so each kept measure exceeds three
    times the total of all later ones; passed-over levels go to ``skipped``.
    """
    last: Optional[ExoticStage] = None
    prev_level: Optional[int] = None
    measure: Exact = Fraction(0)
    bound: Exact = Fraction(0)
    for k in levels:
        if prev_level is not None and k <= prev_level:
            raise ValueError(f"level {k} does not exceed the level {prev_level} before it")
        prev_level = k
        if thin and last is not None and not tail(k) < last.certificate.measure / 3:
            if skipped is not None:
                skipped.append(k)
            continue
        cert = certify(k)
        connector, step = join(last, k, cert)
        measure = measure + connector + cert.measure
        bound = bound + step
        last = ExoticStage(k, cert, connector, measure, bound)
        yield last


def tail_measure_signature(stages: list[ExoticStage], from_position: int = 0) -> Exact:
    """Exact total of the stage measures from ``from_position`` on.  When each
    measure exceeds three times the sum of all later ones (thinning), distinct
    tails of kept levels have distinct signatures."""
    return sum((st.certificate.measure for st in stages[from_position:]), Fraction(0))


def min_full_window(stages: list[ExoticStage]) -> int:
    """Smallest L such that every window of L consecutive units (of the
    certificates' ``length``, read with no word built: blocks on the torus,
    letters on surfaces) of the stage words contains one stage word entirely.
    A window [x, x + L] contains stage j exactly when S_{j-1} >= x and S_j <=
    x + L, so L must cover the first and last stages and every two in a row."""
    lengths = [st.certificate.length for st in stages]
    if not lengths:
        return 0
    return max([lengths[0], lengths[-1]] + [a + b for a, b in zip(lengths, lengths[1:])])
