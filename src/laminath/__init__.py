"""laminath: exact-arithmetic toolkit for Sturmian words, flat foliations,
and translation-surface return dynamics.

Exports are lazy (PEP 562): ``import laminath`` loads no submodule, and each
name below imports its submodule on first access, so ``from laminath import
*`` binds the same objects as importing every submodule would."""

from importlib import import_module

_EXPORTS = {
    "cf": ("ContinuedFraction", "Convergent"),
    "exactnum": ("QuadNum", "format_exact", "parse_exact"),
    "words": ("BlockWord", "cusp_exotic_word", "exotic_word", "inadmissible_segment",
              "inadmissible_word", "letters_to_blocks", "simple_word"),
    "flat": ("FlatPath", "FlatPoint", "cutting_sequence", "homotopy_clearance",
             "linear_growth_probe", "prescribed_growth_path", "transverse_measure"),
    "oracle": ("factor_count", "is_admissible", "rational_factors",
               "sampling_cross_check"),
    "tsurface": ("TranslationSurface", "Transversal", "build_inadmissible_loop",
                 "find_non_saddle_point", "first_return", "load_surface", "return_partition",
                 "synthesize_exotic"),
}
_SUBMODULES = ("cf", "errors", "exactnum", "flat", "iet", "ledger", "oracle", "tsurface",
               "words")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:   # the import binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
