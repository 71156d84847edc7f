"""Helpers the tests call but no certificate or CLI command needs: the
saddle connections of a surface and leaf words sampled at evenly spaced
heights.  Each reads the library's kernels."""

from fractions import Fraction

from laminath import tsurface as ts
from laminath.errors import SingularHit


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
