"""Fixed-point iteration with componentwise error certificates over cone metrics."""

from .gauge import GaugeNorm, mink_norm, strict_ball_test
from .maps import Affine, Halve
from .metrics import (
    Ball,
    ConeMetric,
    DiscreteConeMetric,
    PlusConeMetric,
    WeightedConeMetric,
    inequality_transfer_check,
    nested_ball_probe,
    scalarize,
)
from .normality import normality_table
from .picard import (
    Certificate,
    IterationTrace,
    PicardResult,
    Problem,
    apost_backward_bound,
    apost_forward_bound,
    apriori_bound,
    check_domain_condition,
    estimate_lambda,
    rate_check,
    residual_check,
    run_picard,
    verify_step_contraction,
)
from .roots import (
    ComparisonReport,
    Polynomial,
    RootsResult,
    Weierstrass,
    compare_bounds,
    default_starts,
    solve_roots,
    weierstrass_step,
)
from .solid import (
    NonFiniteError,
    SpaceSpec,
    Vec,
    bounding_scale,
    in_cone,
    in_interior,
    leq,
    lt,
    minorant_scale,
)

__version__ = "0.1.0"
