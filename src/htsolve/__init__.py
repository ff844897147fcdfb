"""htsolve: adaptive low-rank hierarchical-tensor solvers with error control.

Submodules
----------
htree       dimension trees and effective-edge enumeration
hsvd        hierarchical tensor format, truncation, contractions, coarsening
tensorfile  on-disk tensor format
softthresh  soft-thresholding operators and the thresholded Richardson solver
ops         low-rank Kronecker operators and inverse-square-root scalings
problems    shipped desk-scale problem families (diffusion, parametric)
solver      accuracy-controlled adaptive Richardson solver
cli         command-line interface

The top-level package re-exports the public API lazily so that importing
``htsolve.cli`` (the console entry point) stays cheap until numpy is needed;
the CLI uses that window to pin BLAS thread counts before numpy loads.
"""

from htsolve.errors import (
    ContractionViolationError,
    HTSolveError,
    InvalidDimensionError,
    ToleranceInfeasibleError,
)

__version__ = "0.1.0"

_SUBMODULES = ("htree", "hsvd", "tensorfile", "softthresh", "ops", "problems", "solver", "cli")

_API = {
    "htree": ("DimensionTree", "EdgeList", "build_balanced_tree", "build_linear_tree",
              "effective_edges", "serialize_tree", "parse_tree"),
    "hsvd": ("HTensor", "EdgeSpectrum", "ContractionSet", "from_dense", "to_dense",
             "add", "scale", "norm", "orthogonalize",
             "edge_spectra", "recompress", "contractions",
             "coarsen", "select_support", "restrict_support", "as_quasinorm", "zero_htensor",
             "random_htensor", "max_ranks"),
    "tensorfile": ("save_htensor", "load_htensor"),
    "softthresh": ("soft_scalar", "soft_threshold_edge", "soft_threshold", "st_solve"),
    "ops": ("LowRankOperator", "ExpSumScaling", "ExpSumTable", "OperatorBounds",
            "apply_certified", "build_scaling", "rhs_truncate"),
    "problems": ("DiffusionProblemI", "ParametricProblemII", "build_diffusion_I",
                 "build_parametric_II", "dense_solve", "load_problem"),
    "solver": ("SolveConfig", "SolveReport", "default_config", "solve",
               "error_certificate"),
}

_LAZY = {name: mod for mod, names in _API.items() for name in names}

__all__ = sorted(
    {"HTSolveError", "InvalidDimensionError", "ToleranceInfeasibleError",
     "ContractionViolationError", "__version__"}
    | set(_LAZY)
    | set(_SUBMODULES)
)


def __getattr__(name):
    import importlib

    if name in _SUBMODULES:
        return importlib.import_module(f"htsolve.{name}")
    try:
        mod = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'htsolve' has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"htsolve.{mod}"), name)


def __dir__():
    return __all__
