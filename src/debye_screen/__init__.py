"""Numerical toolkit for thermal Debye screening of static potentials.

The package computes the square Debye mass of a relativistic thermal
fermion gas by independent routes (spectral series, momentum integral,
closed massless form), scans the static polarization kernels behind it,
solves the screened potential of smooth classical sources by spectral
division, and verifies the exponential / cubic decay envelopes of the
underlying imaginary-time kernels. A CLI (``debye-screen``) drives the
same machinery from flat key=value configs and emits CSV/JSON artifacts
with embedded manifests.
"""

from .debye import (
    DebyeResult,
    UnitSystem,
    debye_length,
    debye_mass_sq,
    debye_mass_sq_integral,
    debye_mass_sq_massless,
    debye_mass_sq_series,
    debye_mass_sq_si,
)
from .decay import (
    BoundConfig,
    DecayFit,
    DivergenceControl,
    GraphSet,
    KernelConfig,
    RatioReport,
    enumerate_connected_graphs,
    fit_decay,
    graph_bound,
    lemma2_check,
    lemma2_divergence_control,
    thermal_kernel_imag,
    verify_bound_ratio,
)
from .errors import (
    ConvergenceError,
    DebyeScreenError,
    InfraredDivergenceError,
    IntegrandError,
    PoleDetectedError,
    SamplerMismatchError,
    ScanError,
    StripViolationError,
)
from .maxwell import (
    DeltaLimitReport,
    RadialProfile,
    SourceSpec,
    default_r_grid,
    delta_family_limit,
    screening_profile,
    source_fourier,
    yukawa_reference,
)
from .polarization import (
    KernelScan,
    ScanPoint,
    b_hat,
    effective_denominator,
    f_hat_spatial,
    f_hat_temporal,
    scan_kernel,
)
from .quadrature import (
    CubicBallSampler,
    QuadratureResult,
    TestProfile,
    integrate_radial_angular,
    integrate_semi_infinite,
    monte_carlo_6d,
    sine_transform_radial,
)
from .specfun import (
    SeriesResult,
    ThermalParams,
    alternating_sum,
    bessel_k,
    dispersion,
    fermi_factor,
    fermi_factor_prime,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # parameters and special functions
    "ThermalParams", "SeriesResult", "dispersion", "fermi_factor",
    "fermi_factor_prime", "bessel_k", "alternating_sum",
    # quadrature and transforms
    "QuadratureResult", "TestProfile", "integrate_semi_infinite",
    "integrate_radial_angular", "sine_transform_radial", "monte_carlo_6d",
    "CubicBallSampler",
    # square Debye mass routes
    "DebyeResult", "UnitSystem", "debye_mass_sq", "debye_mass_sq_series",
    "debye_mass_sq_integral", "debye_mass_sq_massless", "debye_mass_sq_si",
    "debye_length",
    # polarization kernels
    "KernelScan", "ScanPoint", "f_hat_temporal", "f_hat_spatial", "b_hat",
    "effective_denominator", "scan_kernel",
    # screened potentials
    "SourceSpec", "RadialProfile", "DeltaLimitReport", "source_fourier",
    "screening_profile", "yukawa_reference", "delta_family_limit",
    "default_r_grid",
    # decay envelopes and collision bounds
    "GraphSet", "DecayFit", "KernelConfig", "BoundConfig", "RatioReport",
    "DivergenceControl", "thermal_kernel_imag", "fit_decay",
    "enumerate_connected_graphs", "graph_bound", "verify_bound_ratio",
    "lemma2_check", "lemma2_divergence_control",
    # error taxonomy
    "DebyeScreenError", "ConvergenceError", "IntegrandError",
    "SamplerMismatchError", "PoleDetectedError", "InfraredDivergenceError",
    "StripViolationError", "ScanError",
]
