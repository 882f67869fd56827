"""Lower bounds and verification oracles for chromatic numbers of
Euclidean space with several forbidden distances.

Importing the package runs none of its layers.  Each layer module is in
``sys.modules`` from the start, registered through
``importlib.util.LazyLoader``, and its body runs on the first attribute
access; a public name such as ``chromabound.gamma_chi`` loads its layer
when it is first looked up.  A CLI command therefore runs only the
layers it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public names by defining layer.
_EXPORTS = {
    "bound_engine": (
        "BoundQuery",
        "BoundResult",
        "best_l",
        "chromatic_lower_bound",
        "maximize_over_t",
        "table",
        "theta_ratio",
    ),
    "lattice_combinatorics": (
        "CompositionProfile",
        "alternating_square_identity",
        "count_box",
        "gf_upper_bound",
        "is_prime",
        "multinomial",
        "multinomial_lemma_check",
        "next_prime",
        "profile_diameter",
        "profile_diameter_bruteforce",
    ),
    "lattice_theta": (
        "MuResult",
        "NoBoundError",
        "TailBoundError",
        "ThetaSeries",
        "dn_series",
        "double_cap_compare",
        "e8_series",
        "leech_series",
        "mu_capped",
        "mu_lattice",
        "mu_z",
        "ramanujan_tau",
        "z_series",
    ),
    "special_functions": (
        "GammaChiResult",
        "functional_equation_residual",
        "gamma_chi",
        "jacobi_theta",
        "jacobi_theta_and_tail",
        "kupavskii_upper_base",
        "one_minus_t_theta_max",
        "theta_full",
        "theta_truncated",
    ),
    "tensor_oracle": (
        "CliqueBoundReport",
        "DiameterError",
        "NonPrimeModulusError",
        "OddSquaredDistanceError",
        "PointConfig",
        "SetPartition",
        "clique_bound_check",
        "distinctness_indicator",
        "forbidden_distance_product",
        "partition_coefficients",
        "simplex_indicator",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
_LAYERS = (*_EXPORTS, "brent", "optimize", "verify")

# The verify suites in run order, named here so that the CLI builds its
# --suite choices without running the verify layer.
_SUITES = ("theta", "bounds", "combinatorics", "tensor")

__all__ = sorted(_LAYER_OF)


def _register_lazily(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register_lazily(_layer)
del _layer


def __getattr__(name: str):
    # Not cached in the package namespace: each lookup returns the
    # layer's current binding.
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *_LAYER_OF})
