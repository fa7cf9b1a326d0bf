"""Command-line front end: config parsing, dispatch, CSV/JSON emission.

Configs are flat ``section.key=value`` text, diff-friendly and canonical:
the emitted manifest reparses to an identical RunConfig and re-emits
byte-for-byte. Every artifact embeds the config hash and the module
tolerances, and identical config + seed reproduce identical bytes at the
configured precision. Exit status is 0 on success (all checks pass),
1 on computation failure, 2 on configuration errors and on artifacts
that cannot be written (an ``--out-csv`` or ``--out-json`` path in a
missing directory, say).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .debye import (
    _route,
    debye_mass_sq,
    debye_mass_sq_integral,
    debye_mass_sq_massless,
    debye_mass_sq_series,
)
from .decay import (
    LEMMA2_REFERENCE,
    BoundConfig,
    KernelConfig,
    fit_decay,
    lemma2_check,
    verify_bound_ratio,
)
from .errors import DebyeScreenError
from .maxwell import (
    SourceSpec,
    delta_family_limit,
    screening_profile,
    smeared_yukawa_reference,
    yukawa_reference,
)
from .polarization import f_hat_temporal, scan_kernel
from .quadrature import CubicBallSampler, TestProfile
from .specfun import ThermalParams

__all__ = [
    "ConfigError",
    "Tolerances",
    "Grids",
    "OutputSpec",
    "KernelRequest",
    "RunConfig",
    "default_config",
    "parse_config",
    "emit_manifest",
    "run_debye",
    "run_screening",
    "run_polarization",
    "run_decay",
    "run_limits",
    "main",
]

SUBCOMMANDS = ("debye", "screening", "polarization", "decay", "limits")


class ConfigError(ValueError):
    """Configuration problem, reported with line/field context."""

    def __init__(self, message, line=None, key=None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if key is not None:
            parts.append(f"key {key!r}")
        prefix = " ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.message = message
        self.line = line
        self.key = key


@dataclass(frozen=True)
class Tolerances:
    quadrature: float = 1e-8
    fit_r_lo: float = 6.0    # decay fit window, units of 1/mass
    fit_r_hi: float = 14.0


@dataclass(frozen=True)
class Grids:
    p_min: float = 0.0
    p_max: float = 2.0
    p_count: int = 9
    r_min: float = 0.5
    r_max: float = 15.0
    r_count: int = 24
    scan_count: int = 5


@dataclass(frozen=True)
class OutputSpec:
    csv_path: str = ""
    json_path: str = ""
    precision: int = 12


@dataclass(frozen=True)
class KernelRequest:
    """Per-subcommand knobs: kernel channel, decay's strip offset, weight,
    profile and samples, screening's mode. Decay's regime follows from beta."""

    channel: str = "scalar_m"
    u: float = 0.5
    weight: str = "forward"
    mode: str = "zeroth_order"
    profile_width: float = 1.0
    mc_samples: int = 200000


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: ThermalParams = ThermalParams(beta=1.0, mass=1.0)
    tolerances: Tolerances = Tolerances()
    grids: Grids = Grids()
    seed: int = 42
    output: OutputSpec = OutputSpec()
    source: SourceSpec = SourceSpec("smoothed_point", 0.05)
    kernel: KernelRequest = KernelRequest()

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(
                f"subcommand must be one of {SUBCOMMANDS}, got {self.subcommand!r}",
                key="subcommand")
        t = self.tolerances
        if not (t.quadrature > 0.0):
            raise ConfigError("tolerances must be > 0", key="tolerances.quadrature")
        if not (0.0 < t.fit_r_lo < t.fit_r_hi):
            raise ConfigError("fit window needs 0 < fit_r_lo < fit_r_hi",
                              key="tolerances.fit_r_lo")
        g = self.grids
        for key in ("p_count", "scan_count"):
            if getattr(g, key) < 2:
                raise ConfigError(f"{key} must be >= 2", key=f"grids.{key}")
        if g.r_count < 8:
            raise ConfigError("r_count must be >= 8 (decay fits need it)",
                              key="grids.r_count")
        if not (g.p_min >= 0.0 and g.p_max > g.p_min):
            raise ConfigError("need 0 <= p_min < p_max", key="grids.p_min")
        if not (0.0 < g.r_min < g.r_max):
            raise ConfigError("need 0 < r_min < r_max", key="grids.r_min")
        if not (6 <= self.output.precision <= 17):
            raise ConfigError("precision must be in [6, 17]",
                              key="output.precision")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError("seed must be a nonnegative integer", key="seed")
        if self.source.charge_q == 0.0:
            raise ConfigError("charge_q must be nonzero", key="source.charge_q")
        if self.subcommand == "decay" and self.params.mass == 0.0 \
                and self.kernel.channel == "scalar_m":
            raise ConfigError("scalar_m is m times the kernel, 0 at mass 0; "
                              "use temporal_omega or spatial_p", key="kernel.channel")


_SECTIONS = (
    ("params", ThermalParams),
    ("tolerances", Tolerances),
    ("grids", Grids),
    ("output", OutputSpec),
    ("source", SourceSpec),
    ("kernel", KernelRequest),
)

# The keys each subcommand reads, the only definition of its config: the
# manifest and hash hold subcommand, seed, these keys and output.*, and
# parse_config rejects any other key. seed stays because every subcommand
# takes --seed; output.* are deployment paths that a manifest keeps to
# parse back to the same config. Conditional keys stay listed (screening's
# params.a1, decay's fit window and grids.r_min/r_max), so that the key
# set never depends on values.
_READS = {
    "debye": ("params.beta", "params.mass", "params.charge_e",
              "tolerances.quadrature", "grids.scan_count"),
    "screening": ("params.beta", "params.mass", "params.charge_e", "params.lam",
                  "params.a1", "tolerances.quadrature", "grids.r_min",
                  "grids.r_max", "grids.r_count", "source.family", "source.width",
                  "source.charge_q", "kernel.mode"),
    "polarization": ("params.beta", "params.mass", "params.charge_e", "params.lam",
                     "params.a1", "tolerances.quadrature", "grids.p_min",
                     "grids.p_max", "grids.p_count", "kernel.channel"),
    "decay": ("params.beta", "params.mass", "tolerances.quadrature",
              "tolerances.fit_r_lo", "tolerances.fit_r_hi", "grids.r_min",
              "grids.r_max", "grids.r_count", "kernel.channel", "kernel.u",
              "kernel.weight", "kernel.profile_width", "kernel.mc_samples"),
    "limits": ("params.beta", "params.mass", "params.charge_e", "params.lam",
               "tolerances.quadrature"),
}


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _parse_value(text: str, typ, line, key):
    if typ is float:
        try:
            return float(text)  # accepts "inf"
        except ValueError:
            raise ConfigError(f"not a number: {text!r}", line, key) from None
    if typ is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"not an integer: {text!r}", line, key) from None
    return text


def _section_keys(subcommand: str) -> list:
    """The section keys in a subcommand's manifest, in field order."""
    reads = _READS[subcommand]
    return [f"{section}.{f.name}" for section, cls in _SECTIONS for f in fields(cls)
            if f.init and (section == "output" or f"{section}.{f.name}" in reads)]


def _value(config: RunConfig, key: str):
    section, _, name = key.rpartition(".")
    return getattr(getattr(config, section) if section else config, name)


def emit_manifest(config: RunConfig) -> str:
    """Canonical flat key=value serialization; stable field order."""
    lines = [f"subcommand={config.subcommand}", f"seed={config.seed}"]
    for key in _section_keys(config.subcommand):
        lines.append(f"{key}={_format_value(_value(config, key))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value config text into the subcommand's defaults.

    Accepted keys are subcommand, seed and the subcommand's manifest keys;
    any other key, a duplicate and a rejected value fail with line and key.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected key=value", lineno, None)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ConfigError("duplicate key", lineno, key)
        entries[key] = (lineno, value.strip())
    if "subcommand" not in entries:
        raise ConfigError("missing required key 'subcommand'", None, "subcommand")
    lineno, subcommand = entries.pop("subcommand")
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}",
                          lineno, "subcommand")

    # unspecified keys keep the subcommand's defaults, whose values give
    # each key its type
    base = default_config(subcommand)
    allowed = {"seed", *_section_keys(subcommand)}
    sections = {section: getattr(base, section) for section, _ in _SECTIONS}
    top = {}
    for key, (lineno, value) in entries.items():
        if key not in allowed:
            raise ConfigError(f"unknown key for subcommand {subcommand!r}", lineno, key)
        section, _, name = key.rpartition(".")
        parsed = _parse_value(value, type(_value(base, key)), lineno, key)
        if not section:
            top[name] = parsed
            continue
        # each section dataclass checks its fields one by one, so setting
        # them one at a time finds the line of the value it rejects
        try:
            sections[section] = replace(sections[section], **{name: parsed})
        except ValueError as exc:
            raise ConfigError(str(exc), lineno, key) from exc
    try:
        return replace(base, **top, **sections)
    except ConfigError as exc:
        # RunConfig names the key it rejects, a window check its lower end;
        # the file may have set only the upper end
        key = exc.key if exc.key in entries else {
            "tolerances.fit_r_lo": "tolerances.fit_r_hi", "grids.p_min": "grids.p_max",
            "grids.r_min": "grids.r_max"}.get(exc.key, exc.key)
        line = entries[key][0] if key in entries else None
        raise ConfigError(exc.message, line, key) from None


def default_config(subcommand: str) -> RunConfig:
    base = RunConfig(subcommand=subcommand)
    if subcommand == "screening":
        return replace(base, params=ThermalParams(beta=1.0, mass=0.0))
    if subcommand == "polarization":
        return replace(base, kernel=replace(base.kernel, channel="temporal"))
    if subcommand == "decay":
        return replace(base, grids=replace(base.grids, r_count=10))
    if subcommand == "limits":
        return replace(base, params=ThermalParams(beta=1.0, mass=0.0))
    return base


def _config_sha256(config: RunConfig) -> str:
    return hashlib.sha256(emit_manifest(config).encode("utf-8")).hexdigest()


def _fmt(x, precision: int) -> str:
    return f"{x:.{precision}g}" if isinstance(x, float) else str(x)


def _jsonable(x, precision: int):
    if isinstance(x, dict):
        return {k: _jsonable(v, precision) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, precision) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            return _fmt(x, precision)
        return float(f"{x:.{precision}g}")
    return str(x)


def _check(name, value, reference, tolerance):
    if isinstance(value, float) and isinstance(reference, float) \
            and math.isfinite(value) and math.isfinite(reference):
        ok = abs(value - reference) <= tolerance * max(abs(reference), 1.0)
    else:
        ok = value == reference
    return {"name": name, "value": value, "reference": reference,
            "tolerance": tolerance, "pass": bool(ok)}


@dataclass
class Artifacts:
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    csv_header: tuple = ()
    csv_units: str = ""
    csv_rows: list = field(default_factory=list)


def run_debye(config: RunConfig) -> Artifacts:
    p = config.params
    tol = config.tolerances.quadrature
    art = Artifacts()

    routes = {}
    if not math.isfinite(p.beta):
        routes["series"] = debye_mass_sq_series(p, tol)
    elif p.mass == 0.0:
        routes["massless"] = debye_mass_sq_massless(p)
        routes["integral"] = debye_mass_sq_integral(p, tol)
    else:
        routes["series"] = debye_mass_sq_series(p, min(tol, 1e-10))
        routes["integral"] = debye_mass_sq_integral(p, tol)

    best = next(iter(routes.values()))
    # the canonical dispatch at (beta, m): lambda_d and that scan row
    here = debye_mass_sq(p, tol)
    art.results = {
        "m_d_sq": best.m_d_sq,
        "lambda_d": here.lambda_d,
        "routes": {k: v.m_d_sq for k, v in routes.items()},
    }
    if len(routes) == 2:
        a, b = [v.m_d_sq for v in routes.values()]
        gap = abs(a - b) / max(abs(a), abs(b), 1e-300)
        art.results["cross_gap"] = gap
        art.checks.append(_check("debye_route_agreement", gap, 0.0, 1e-6))
    if not math.isfinite(p.beta):
        art.checks.append(_check("ground_state_mass_vanishes",
                                 best.m_d_sq, 0.0, 0.0))

    art.csv_header = ("beta", "mass", "m_d_sq", "lambda_d", "method")
    art.csv_units = "1/energy, energy, energy^2, length, -"
    if math.isfinite(p.beta):
        betas = np.geomspace(p.beta / 2.0, 2.0 * p.beta, config.grids.scan_count)
    else:
        betas = [math.inf]
    masses = sorted({0.0, p.mass})
    for beta in betas:
        for m in masses:
            sp = dataclasses.replace(p, beta=float(beta), mass=m)
            res = here if sp == p else debye_mass_sq(sp, tol)
            art.csv_rows.append((float(beta), m, res.m_d_sq, res.lambda_d, res.method))
    return art


def _profile_rate_fit(profile, charge_q, r_lo=0.0):
    # Yukawa form: log(4 pi r A / q) is linear in r with slope -rate
    pairs = [(r, 4.0 * math.pi * r * v / charge_q)
             for r, v in zip(profile.r_grid, profile.values)]
    tail = [p for p in pairs if p[0] >= r_lo]
    if len(tail) < 8:
        tail = pairs[-8:]
    # in the massless theory the kernel's p^2 log p branch point feeds an
    # unscreened ~r^-5 tail that flips the profile sign far out; those
    # radii carry no Yukawa rate, so drop them from the log fit
    positive = [p for p in tail if p[1] > 0.0]
    if len(positive) < 4:
        raise DebyeScreenError(
            "too few positive profile values for a Yukawa rate fit; the "
            "radial window likely extends past the screened region "
            f"({len(positive)} of {len(tail)} usable)")
    fit = fit_decay(positive)
    return -fit.slope, fit


def _other_route_m_d_sq(p: ThermalParams, tol: float) -> float:
    """m_D^2 from the Debye route that debye_mass_sq does not take at p (the integral
    for its closed form or series, the series for its integral): a defect in one shows."""
    route = debye_mass_sq_series if _route(p) == "integral" else debye_mass_sq_integral
    return route(p, min(tol, 1e-8)).m_d_sq


def run_screening(config: RunConfig) -> Artifacts:
    p = config.params
    g = config.grids
    tol = config.tolerances.quadrature
    art = Artifacts()

    r_grid = list(np.geomspace(g.r_min, g.r_max, g.r_count))
    prof = screening_profile(config.source, p, config.kernel.mode, r_grid, tol)
    m_d_sq = _other_route_m_d_sq(p, tol)
    q = config.source.charge_q

    art.csv_header = ("r", "potential", "yukawa_reference", "relative_gap")
    art.csv_units = "length, charge/length, charge/length, -"
    for r, v in zip(prof.r_grid, prof.values):
        ref = yukawa_reference(q, p.lam, m_d_sq, r)
        art.csv_rows.append((r, v, ref, abs(v - ref) / max(abs(ref), 1e-300)))

    reference_rate = math.sqrt(p.lam * m_d_sq)
    # the full kernel is only pole-dominated well past the screening
    # length; the zeroth-order profile is Yukawa at every radius
    r_lo = 5.0 / reference_rate if (
        config.kernel.mode == "full_kernel" and reference_rate > 0.0) else 0.0
    rate, fit = _profile_rate_fit(prof, q, r_lo)
    art.results = {
        "m_d_sq": m_d_sq,
        "fitted_rate": rate,
        "reference_rate": reference_rate,
        "fit_window": list(fit.window),
        "fit_max_residual": fit.max_residual,
        "mode": config.kernel.mode,
    }
    rate_tol = 1e-3 if config.kernel.mode == "zeroth_order" else 2e-2
    if p.lam == 0.0:
        art.checks.append(_check("coulomb_rate_zero", rate, 0.0, 1e-6))
        r_far = prof.r_grid[-1]
        art.checks.append(_check(
            "coulomb_charge_recovered",
            4.0 * math.pi * r_far * prof.values[-1], q, 1e-6))
    else:
        # the mollifier inflates the far field by e^{eps^2 mu^2 / 2} - 1;
        # keep the rate check tight but fold that into the tolerance
        mu2 = p.lam * m_d_sq
        width_bias = math.expm1(0.5 * config.source.width ** 2 * mu2)
        art.checks.append(_check("screening_rate", rate, reference_rate,
                                 rate_tol + width_bias))
    if config.kernel.mode == "zeroth_order" and config.source.family == "smoothed_point":
        # every radius against the closed form: the rate fit reads only the
        # slope of log(rA), so it cannot see a wrong amplitude
        gap = 0.0
        for r, v in zip(prof.r_grid, prof.values):
            ref = smeared_yukawa_reference(q, p.lam, m_d_sq, config.source.width, r)
            gap = max(gap, abs(v - ref) / max(abs(ref), 1e-300))
        art.checks.append(_check("profile_vs_smeared_yukawa", gap, 0.0, tol))
    return art


def run_polarization(config: RunConfig) -> Artifacts:
    p = config.params
    g = config.grids
    tol = config.tolerances.quadrature
    channel = config.kernel.channel
    art = Artifacts()

    p_grid = list(np.linspace(g.p_min, g.p_max, g.p_count))
    scan = scan_kernel(channel, p_grid, p, tol)

    art.csv_header = ("p_tilde", "f_hat", "b_hat", "denominator")
    art.csv_units = "energy, energy^2, energy^2, energy^2"
    for pt in scan.points:
        art.csv_rows.append((pt.p_tilde_mag, pt.f_hat, pt.b_hat,
                             pt.denominator))

    art.results = {
        "channel": channel,
        "p_grid": [pt.p_tilde_mag for pt in scan.points],
        "f_hat": [pt.f_hat for pt in scan.points],
    }
    if channel == "temporal":
        if math.isfinite(p.beta):
            # the scan's p=0 entry is the defining boundary value, so the
            # identity check extrapolates the kernel in from p > 0 instead:
            # f(s h) = a + b s^2 + c s^2 ln s at s = 1, 1/2, 1/4, where the
            # log term is the massless kernel's p^2 ln p branch point
            m_d_sq = debye_mass_sq(p, min(tol, 1e-8)).m_d_sq
            h = 0.2 * math.sqrt(m_d_sq)
            steps = (1.0, 0.5, 0.25)
            fit = np.linalg.solve([[1.0, s * s, s * s * math.log(s)] for s in steps],
                                  [f_hat_temporal(s * h, p, tol) for s in steps])
            extrap = float(fit[0])
            gap = abs(extrap + m_d_sq) / max(m_d_sq, 1e-300)
            art.results["static_identity_gap"] = gap
            art.checks.append(_check("static_limit_identity", gap, 0.0, 1e-4))
        else:
            worst = max(abs(pt.f_hat) for pt in scan.points)
            art.checks.append(_check("ground_state_kernel_zero",
                                     worst, 0.0, 1e-12))
    elif scan.points and scan.points[0].p_tilde_mag == 0.0:
        art.checks.append(_check("spatial_static_zero",
                                 scan.points[0].f_hat, 0.0, 1e-6))
    return art


def run_decay(config: RunConfig) -> Artifacts:
    p = config.params
    k = config.kernel
    t = config.tolerances
    art = Artifacts()

    profile = TestProfile(kind="gaussian", width=k.profile_width,
                          support_radius=3.0 / k.profile_width)
    if p.mass > 0.0:
        schedule = list(np.linspace(t.fit_r_lo / p.mass, t.fit_r_hi / p.mass,
                                    config.grids.r_count))
    else:
        schedule = list(np.geomspace(max(config.grids.r_min, 2.0),
                                     config.grids.r_max, config.grids.r_count))
    kc = KernelConfig(channel=k.channel, u=k.u, profile=profile, params=p,
                      tol=t.quadrature, weight=k.weight)
    bc = BoundConfig("ground_spacetime" if p.is_ground else "thermal_spatial", p.mass)
    rep = verify_bound_ratio(kc, bc, schedule)

    art.csv_header = ("separation", "kernel_abs", "bound", "ratio")
    art.csv_units = "length, kernel, kernel, -"
    art.csv_rows = list(zip(rep.separations, rep.kernels, rep.bounds, rep.ratios))

    art.results = {
        "sup_ratio": rep.sup_ratio,
        "trend_slope": rep.trend_slope,
        "bounded": rep.bounded,
        "excluded": list(rep.excluded),
    }
    if p.mass > 0.0:
        fit = fit_decay(list(zip(rep.separations, rep.kernels)))
        art.results["fit_slope"] = fit.slope
        art.checks.append(_check("massive_rate_at_least_mass",
                                 min(-fit.slope / p.mass, 1.0), 1.0, 0.05))
    art.checks.append(_check("envelope_trend_flat", rep.bounded, True, 0.0))

    # allowed: the statistical error and the mass outside the sampler's ball
    mc = lemma2_check(k.mc_samples, config.seed)
    art.results["lemma2"] = {"estimate": mc.value, "stderr": mc.error_estimate}
    allowed = 4.0 * mc.error_estimate + CubicBallSampler().truncation_bias_bound()
    art.checks.append(_check("lemma2_vs_reference", mc.value, LEMMA2_REFERENCE,
                             allowed / LEMMA2_REFERENCE))
    return art


def run_limits(config: RunConfig) -> Artifacts:
    p = config.params
    tol = config.tolerances.quadrature
    art = Artifacts()
    art.csv_header = ("family", "parameter", "value", "reference", "gap")
    art.csv_units = "-, energy or 1/energy, energy^2, energy^2, -"

    beta = p.beta if math.isfinite(p.beta) else 1.0

    # m -> 0: the integral route approaches the closed massless value
    massless = debye_mass_sq_massless(
        dataclasses.replace(p, beta=beta, mass=0.0)).m_d_sq
    gaps = []
    for m in (0.4 / beta, 0.2 / beta, 0.1 / beta):
        val = debye_mass_sq_integral(
            dataclasses.replace(p, beta=beta, mass=m), tol).m_d_sq
        gap = abs(val - massless) / massless
        gaps.append(gap)
        art.csv_rows.append(("mass_to_zero", m, val, massless, gap))
    art.checks.append(_check("massless_limit_monotone",
                             all(a > b for a, b in zip(gaps, gaps[1:])),
                             True, 0.0))
    art.checks.append(_check("massless_limit_gap", gaps[-1], 0.0, 2e-2))

    # beta -> inf at fixed m > 0: the square mass dies exponentially
    m_ref = p.mass if p.mass > 0.0 else 1.0
    vals = []
    for b in (10.0 / m_ref, 20.0 / m_ref, 30.0 / m_ref):
        val = debye_mass_sq_series(
            dataclasses.replace(p, beta=b, mass=m_ref), tol).m_d_sq
        vals.append(val)
        art.csv_rows.append(("beta_to_inf", b, val, 0.0, val))
    art.checks.append(_check("cold_limit_decreasing",
                             all(a > b for a, b in zip(vals, vals[1:])),
                             True, 0.0))
    art.checks.append(_check("cold_limit_small", vals[-1], 0.0, 1e-10))
    ground = debye_mass_sq(
        dataclasses.replace(p, beta=math.inf, mass=m_ref), tol).m_d_sq
    art.checks.append(_check("ground_state_exact_zero", ground, 0.0, 0.0))

    # delta family: mollified sources converge to the ideal point source
    pp = dataclasses.replace(p, beta=beta, mass=p.mass)
    rep = delta_family_limit((0.04, 0.02, 0.01), pp, (2.0, 5.0), tol)
    for j, r in enumerate(rep.r_probe):
        art.csv_rows.append(("delta_family", r, rep.final_gap[j], 0.0,
                             rep.final_gap[j]))
    art.checks.append(_check("delta_family_converged",
                             all(rep.converged), True, 0.0))
    # the family's Yukawa reference comes from debye_mass_sq, like its profiles
    other = _other_route_m_d_sq(pp, tol)
    gap = max(abs(ref - yukawa_reference(1.0, pp.lam, other, r)) / ref
              for r, ref in zip(rep.r_probe, rep.yukawa))
    art.checks.append(_check("delta_reference_vs_other_route", gap, 0.0, 1e-6))

    art.results = {
        "massless_limit_gaps": gaps,
        "cold_limit_values": vals,
        "delta_final_gaps": list(rep.final_gap),
    }
    return art


_RUNNERS = {
    "debye": run_debye,
    "screening": run_screening,
    "polarization": run_polarization,
    "decay": run_decay,
    "limits": run_limits,
}


def _write_csv(path: str, config: RunConfig, art: Artifacts) -> None:
    prec = config.output.precision
    lines = [
        f"# {config.subcommand} results",
        f"# config_sha256={_config_sha256(config)}",
        f"# tolerance.quadrature={_fmt(config.tolerances.quadrature, prec)}",
        f"# units: {art.csv_units}",
        ",".join(art.csv_header),
    ]
    for row in art.csv_rows:
        lines.append(",".join(_fmt(v, prec) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, config: RunConfig, art: Artifacts) -> None:
    prec = config.output.precision
    doc = {
        "manifest": {
            "config": emit_manifest(config),
            "config_sha256": _config_sha256(config),
            "tolerances": {key.partition(".")[2]: _value(config, key)
                           for key in _READS[config.subcommand]
                           if key.startswith("tolerances.")},
            "seed": config.seed,
        },
        "results": _jsonable(art.results, prec),
        "checks": _jsonable(art.checks, prec),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debye-screen",
        description="Thermal screening toolkit: Debye mass routes, screened "
                    "potentials, polarization kernels, decay bounds.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} pipeline")
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out-csv", help="write the scan table here")
        sp.add_argument("--out-json", help="write manifest/results/checks here")
        sp.add_argument("--seed", type=int, help="override the run seed")
        sp.add_argument("--precision", type=int,
                        help="significant digits in artifacts, 6..17")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress the stdout summary")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = parse_config(fh.read())
            if config.subcommand != args.subcommand:
                raise ConfigError(
                    f"config is for {config.subcommand!r}, invoked as "
                    f"{args.subcommand!r}", key="subcommand")
        else:
            config = default_config(args.subcommand)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        out = {}
        if args.out_csv:
            out["csv_path"] = args.out_csv
        if args.out_json:
            out["json_path"] = args.out_json
        if args.precision is not None:
            out["precision"] = args.precision
        if out:
            overrides["output"] = replace(config.output, **out)
        if overrides:
            config = replace(config, **overrides)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        art = _RUNNERS[config.subcommand](config)
        if config.output.csv_path:
            _write_csv(config.output.csv_path, config, art)
        if config.output.json_path:
            _write_json(config.output.json_path, config, art)
    except OSError as exc:
        # the runners do no file I/O, so this is an artifact that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except DebyeScreenError as exc:
        print(f"computation failed [{config.subcommand}] "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"computation failed [{config.subcommand}] ValueError: {exc}",
              file=sys.stderr)
        return 1

    failed = [c for c in art.checks if not c["pass"]]
    if not args.quiet:
        prec = config.output.precision
        print(f"{config.subcommand}: {len(art.checks) - len(failed)}/"
              f"{len(art.checks)} checks passed"
              f" (sha256 {_config_sha256(config)[:12]})")
        for c in art.checks:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"  [{status}] {c['name']}: value={_fmt(c['value'], prec)}"
                  f" reference={_fmt(c['reference'], prec)}"
                  f" tol={_fmt(c['tolerance'], prec)}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
