"""The one exotic ledger on both sides: torus segments and surface loops."""

import pytest

from laminath import tsurface as ts, words
from laminath.cf import ContinuedFraction
from laminath.ledger import min_full_window, tail_measure_signature

SQRT2 = ContinuedFraction.sqrt2()


def _torus():
    def stages_of(levels, thin=False):
        ew = words.exotic_word(SQRT2, levels, thin=thin)
        assert sorted(ew.kept_indices + ew.skipped_indices) == list(levels)
        return ew.stages

    def holds_factor(st):
        head = words.inadmissible_word(SQRT2, st.level)
        return st.certificate.word.blocks[:len(head)] == head.blocks

    return stages_of, holds_factor


def _surface(name, edge):
    S = ts.preset_surface(name)
    tr = ts.Transversal(S, edge)
    cache = {}

    def stages_of(levels, thin=False):
        return ts.synthesize_exotic(S, tr, levels, thin=thin, certificates=cache)

    def holds_factor(st):
        return st.certificate.factor in st.certificate.word

    return stages_of, holds_factor


# stage source, its levels, and two level sets with disjoint tails
SIDES = {
    "sqrt2": (_torus, (), (2, 4, 6, 8, 10, 12), ((2, 6, 10), (4, 8, 12))),
    "sheared-torus": (_surface, ("sheared-torus", 1), tuple(range(1, 9)), ((2, 4), (3, 5))),
    "slit-tori": (_surface, ("slit-tori", 5), tuple(range(1, 9)), ((2, 4), (3, 5))),
}


@pytest.mark.parametrize("side", SIDES)
def test_exotic_ledger(side):
    make, args, levels, (a, b) = SIDES[side]
    stages_of, holds_factor = make(*args)
    stages = stages_of(levels)
    assert [st.level for st in stages] == list(levels)
    # (i) finite intersection: the exact ledger stays within its bound
    assert all(st.partial_measure <= st.partial_bound for st in stages)
    # (ii) not asymptotic: each stage word holds its certified inadmissible
    # factor, and a window of the bound holds a whole stage word
    assert all(holds_factor(st) for st in stages)
    assert min_full_window(stages) >= max(len(st.certificate.word) for st in stages)
    # (iii) not eventually disjoint: every tail has positive measure
    assert all(tail_measure_signature(stages, j) > 0 for j in range(len(stages)))
    # (iv) thinning keeps the first level and skips some, each kept measure
    # exceeds three times the later tail, and distinct level sets get
    # distinct signatures
    thinned = stages_of(levels, thin=True)
    assert thinned[0].level == levels[0] and 2 <= len(thinned) < len(levels)
    for j, st in enumerate(thinned):
        assert st.certificate.measure > 3 * tail_measure_signature(thinned, j + 1)
    assert tail_measure_signature(stages_of(a)) != tail_measure_signature(stages_of(b))
