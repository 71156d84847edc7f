"""laminath: exact-arithmetic toolkit for Sturmian words, flat foliations,
and translation-surface return dynamics."""

from .cf import ContinuedFraction, Convergent, compare, convergents, floor_part
from .exactnum import QuadNum, format_exact, parse_exact
from .words import (BlockWord, cusp_exotic_word, exotic_word,
                    inadmissible_segment, inadmissible_word, letters_to_blocks,
                    simple_word)
from .flat import (FlatPath, FlatPoint, cutting_sequence, homotopy_clearance,
                   linear_growth_probe, prescribed_growth_path,
                   three_distance_points, transverse_measure)
from .oracle import (factor_count, is_admissible, rational_factors,
                     sampling_cross_check)
from .tsurface import (TranslationSurface, Transversal,
                       build_inadmissible_loop, find_non_saddle_point,
                       first_return, flow_step, load_surface,
                       return_partition, saddle_connections, synthesize_exotic)

__version__ = "0.1.0"
