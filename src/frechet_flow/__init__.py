"""Spectral evolution under constant-coefficient symbols on a seminormed
frequency grid: exponential flows with certified truncation, per-ball
operator calculus, invariance decision procedures, and Taylor translation
of very smooth functions."""

from .spectral import (
    FrequencyGrid,
    GridError,
    ShellField,
    SpectralField,
    delta,
    gaussian_hat,
    metric,
    ones,
    project,
    random_field,
    saturated_product,
    seminorm,
    seminorm_profile,
)
from .symbols import (
    PolynomialSymbol,
    SymbolOrderReport,
    SymbolSyntaxError,
    audit_order,
    diffop_to_symbol,
    heat_symbol,
    parse_symbol,
    transport_symbol,
)
from .operators import (
    CompatibilityReport,
    MultiplierOperator,
    ReflectionOperator,
    check_strong_compatibility,
    continuum_seminorm_bound,
    verify_power_bound,
)
from .evolution import (
    SeriesDiagnostics,
    evolve,
    exp_multiplier,
    exp_series,
    generator_residual,
    generator_residual_bound,
    uniform_continuity_gap,
    verify_group_law,
    verify_quotient_diagrams,
)
from .invariance import (
    EprimeDecision,
    GrowthWitness,
    L2Decision,
    decide_eprime,
    decide_l2,
    find_growth_witness,
    l2_blowup_construction,
)
from .translation import (
    ExpCertificate,
    SmoothExpFunction,
    certify_membership,
    cinf_seminorm,
    gaussian,
    polynomial,
    translate_detailed,
)

__version__ = "0.1.0"
