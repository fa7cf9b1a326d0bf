"""The package namespace: the union of its modules' own ``__all__``."""

import importlib

import debye_screen

MODULES = ("specfun", "quadrature", "debye", "polarization", "maxwell", "decay", "errors")

# the names the package exports; one leaves only by a deliberate API
# removal, recorded in CHANGES.md
EXPORTED = (
    "ThermalParams", "SeriesResult", "dispersion", "bessel_k", "alternating_sum",
    "QuadratureResult", "TestProfile", "integrate_semi_infinite", "integrate_radial_angular",
    "sine_transform_radial", "monte_carlo_6d", "CubicBallSampler",
    "DebyeResult", "debye_mass_sq", "debye_mass_sq_series", "debye_mass_sq_integral",
    "debye_mass_sq_massless", "debye_length",
    "KernelScan", "ScanPoint", "f_hat_temporal", "f_hat_spatial", "b_hat", "scan_kernel",
    "SourceSpec", "RadialProfile", "DeltaLimitReport", "source_fourier", "screening_profile",
    "yukawa_reference", "delta_family_limit",
    "GraphSet", "DecayFit", "KernelConfig", "BoundConfig", "RatioReport", "DivergenceControl",
    "thermal_kernel_imag", "fit_decay", "enumerate_connected_graphs", "graph_bound",
    "verify_bound_ratio", "lemma2_check", "lemma2_divergence_control",
    "DebyeScreenError", "ConvergenceError", "IntegrandError", "SamplerMismatchError",
    "PoleDetectedError", "InfraredDivergenceError", "StripViolationError", "ScanError",
)


def test_namespace_is_the_union_of_module_exports():
    union = set().union(*(importlib.import_module(f"debye_screen.{m}").__all__
                          for m in MODULES))
    assert len(debye_screen.__all__) == len(set(debye_screen.__all__))
    assert set(debye_screen.__all__) == {"__version__"} | union


def test_earlier_exports_still_import():
    exec(f"from debye_screen import {', '.join(EXPORTED)}", {})
    assert len(EXPORTED) == 52 and set(EXPORTED) <= set(debye_screen.__all__)


def test_module_exports_resolve_from_the_package():
    # decay lists LEMMA2_REFERENCE in its __all__, so the package exports it
    from debye_screen import LEMMA2_REFERENCE, decay
    assert LEMMA2_REFERENCE is decay.LEMMA2_REFERENCE
    for name in debye_screen.__all__:
        assert hasattr(debye_screen, name), name
