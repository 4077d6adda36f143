"""anisogauge: exact arithmetic for quadratic-extension metric groups,
orthogonal-group enumeration, fusion-ring verification, gauging censuses,
and the group-theoreticality eigenvalue test.

The public names below are exported lazily: each is imported from its home
module on first access (PEP 562), so `import anisogauge` loads no numpy.
Only `quadspace`, `orthogroup`, `fusionring`, `gtcheck` and `suite` need
it; `errors`, `ffield` and `gauging` do not.  Every record (`CertifiedPair`,
`Census`, `AxiomReport`, `GTVerdict`) is a namedtuple: `dataclasses` would
load `inspect` and `copy`, start-up work that no command needs.
"""

import importlib

_EXPORTS = {
    "errors": ("AnisogaugeError", "BadParameter", "BoundExceeded", "ExistenceViolated"),
    "ffield": (
        "ExtElement",
        "FieldCtx",
        "frobenius",
        "is_prime",
        "ker_norm",
        "make_field",
        "norm",
        "pick_order_p",
        "sqrt_ext",
    ),
    "gauging": ("Census", "certify_pair", "equivariantization_census"),
    "quadspace": (
        "AnisotropicSpace",
        "HyperbolicSpace",
        "QuadSpace",
        "build_anisotropic",
        "build_hyperbolic",
        "metric_group_of",
    ),
    "orthogroup": (
        "Mat2",
        "SplitOrthMap",
        "dihedral_generators",
        "enumerate_orth",
        "rotation",
        "split_embedding",
    ),
    "fusionring": (
        "AxiomReport",
        "FusionRing",
        "build_extension_ring",
        "drinfeld_double_rank",
        "fp_dims",
        "ring_from_text",
        "ring_to_text",
        "semidirect_irreps",
        "verify_axioms",
    ),
    "gtcheck": (
        "GTVerdict",
        "eigenvalues_2x2",
        "existence_gate",
        "gt_criterion",
        "hyperbolic_control",
        "non_group_theoretical_suite",
        "quartic_identity_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Resolve an exported name from its home module on first access.

    Any other name raises AttributeError, so `from anisogauge import
    fusionring` still falls back to importing the submodule.
    """
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
