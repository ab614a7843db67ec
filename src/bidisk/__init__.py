"""Optimal polynomial approximants and norm decay in weighted spaces on the bidisk.

The package computes, at desk scale: weighted coefficient norms and inner
products on the disk and bidisk (``spaces``), exact truncated series
arithmetic with the lifting/restriction maps between one and two variables
(``series``), optimal approximants to reciprocals via Hermitian normal
equations together with Riesz/Cesaro constructions and closed-form residuals
(``approximants``), logarithmic energies of torus measures and the
Bergman-dual annihilation certificate (``capacity``), decay-rate scans with
power-law and logarithmic fits against the sharp predicted rates
(``analysis``), randomized inequality suites (``suites``), and a batch CLI
(``cli``).
"""

from .analysis import (
    CyclicityVerdict,
    DecaySeries,
    RateFit,
    TheoryRate,
    cyclicity_verdict,
    decay_scan,
    fit_log_mode,
    fit_power,
    predicted_rate,
)
from .approximants import (
    ApproximantResult,
    BasisSpec,
    GramSystem,
    cesaro,
    closed_form_twisted,
    diagonal_reduce_solve,
    gram_assemble,
    perturbation_check,
    residual_norm_sq,
    riesz_approximant,
    riesz_diagonal,
    riesz_orders,
    solve_optimal,
    solve_orders,
)
from .capacity import (
    EnergyReport,
    FourierMeasure,
    annihilation_check,
    bergman_norm_sq,
    cauchy_transform,
    custom_measure,
    diagonal_current,
    dual_pairing,
    energy,
    lebesgue,
    point_mass,
)
from .catalog import SeriesInfo, builtin_series, resolve_measure, resolve_series
from .series import (
    DiagonalPattern,
    OneVarSeries,
    TwoVarSeries,
    constant1,
    constant2,
    diag_restrict,
    diagonal_project,
    is_diagonal,
    lift,
    monomial1,
    monomial2,
    multiply1,
    multiply2,
    reciprocal1,
    reciprocal2,
    restrict,
    separable,
    shifted_pairings,
    slice_series,
)
from .spaces import (
    AlphaWeight,
    ComparisonConstants,
    PatternWeight,
    beta_of_alpha,
    comparison_constants,
    inner1,
    inner2,
    kernel_norm_sq,
    norm1,
    norm2,
    phi,
    phi_inv,
)
from .suites import SuiteResult, available_suites, run_suite

__version__ = "0.1.0"
