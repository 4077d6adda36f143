"""anisogauge: exact arithmetic for quadratic-extension metric groups,
orthogonal-group enumeration, fusion-ring verification, gauging censuses,
and the group-theoreticality eigenvalue test."""

from .errors import (
    AnisogaugeError,
    BadParameter,
    BetaSingular,
    BoundExceeded,
    EvenCharacteristic,
    ExistenceViolated,
    NoSuchElement,
    NotACharacter,
    NotNormOne,
    NotPrime,
    ZeroEigenvalue,
)
from .ffield import (
    ExtElement,
    FieldCtx,
    frobenius,
    is_prime,
    ker_norm,
    make_field,
    norm,
    pick_order_p,
    sqrt_ext,
    trace,
)
from .quadspace import (
    AnisotropicSpace,
    HyperbolicSpace,
    MetricGroup,
    QuadSpace,
    bilinear,
    build_anisotropic,
    build_hyperbolic,
    metric_group_of,
)
from .orthogroup import (
    AnisoOrthMap,
    Mat2,
    SplitOrthMap,
    dihedral_generators,
    enumerate_orth,
    rotation,
    sigma_map,
    split_embedding,
)
from .fusionring import (
    AxiomReport,
    Census,
    FusionRing,
    build_extension_ring,
    conjugacy_classes,
    cyclic_group_ring,
    drinfeld_double_rank,
    equivariantization_census,
    fp_dims,
    orbit_census,
    ring_from_text,
    ring_to_text,
    semidirect_group_table,
    semidirect_irreps,
    verify_axioms,
)
from .gtcheck import (
    GTVerdict,
    SuiteReport,
    eigenvalues_2x2,
    existence_gate,
    gt_criterion,
    hyperbolic_control,
    non_group_theoretical_suite,
    quartic_identity_check,
)

__version__ = "0.1.0"
