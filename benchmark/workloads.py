"""The four workloads: their operations, checks and per-layer metrics.

A workload lists the operations of one round. The harness runs whole
rounds, so every round attempts the same operations. An operation fails
when it raises or when its own acceptance test rejects the result (the
static-limit identity, a CLI exit code). Checks against independent
results run after the timed rounds on the last round's outputs.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from inputs import MD_SQ_UNIT

# value of the triple-cubic 6D integral; `python3 benchmark/lemma2_reference.py`
# recomputes it by nested scipy quadrature
LEMMA2_REFERENCE = 1.7040776561593323
# a Monte Carlo estimate is accepted within this many standard errors
MC_SIGMAS = 4.0


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    fails: Callable[[object], bool] = lambda out: False


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _deterministic(rounds: list[dict]) -> Check:
    first = repr(rounds[0])
    same = all(repr(r) == first for r in rounds[1:])
    return Check("rounds_identical", same, f"{len(rounds)} rounds")


class Workload:
    name = ""
    threads: str | None = None   # DEBYE_SCREEN_THREADS, None for the default

    def __init__(self, inputs: dict, root: str):
        self.inputs = inputs
        self.root = root

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        return time.process_time()

    def warm_up(self) -> None:
        """Fill caches that only the first call of a process pays for."""

    def instrument(self, tracer) -> None:
        """Wrap the layer entry points this workload goes through."""

    def layer_metrics(self, tracer, rounds) -> dict:
        return {}

    def checks(self, rounds: list[dict]) -> list[Check]:
        return [_deterministic(rounds)]

    def close(self) -> None:
        """Remove what the operations wrote."""


# ---------------------------------------------------------------------------
# kernel_scan
# ---------------------------------------------------------------------------

def static_identity(params, tol=1e-8) -> dict:
    """Richardson-extrapolated f_hat(0+) against -m_D^2, as the CLI does."""
    from debye_screen import debye, polarization
    m_d_sq = debye.debye_mass_sq(params, tol).m_d_sq
    h = 0.2 * math.sqrt(m_d_sq)
    f1 = polarization.f_hat_temporal(h, params, tol)
    f2 = polarization.f_hat_temporal(h / 2.0, params, tol)
    extrap = (4.0 * f2 - f1) / 3.0
    return {"m_d_sq": m_d_sq, "extrapolated": extrap,
            "gap": abs(extrap + m_d_sq) / m_d_sq}


IDENTITY_GAP = 1e-4   # the CLI's static_limit_identity tolerance


class KernelScan(Workload):
    name = "kernel_scan"
    threads = "1"
    TOL = 1e-8
    SCANS = {  # op -> (channel, beta, mass, input key)
        "scan_hot_massless": ("temporal", 6.0 ** -0.5, 0.0, "nodes_hot_massless"),
        "scan_massless": ("temporal", 1.0, 0.0, "nodes_massless"),
        "scan_massive": ("temporal", 1.0, 1.0, "nodes_massive"),
        "scan_spatial": ("spatial", 1.0, 1.0, "nodes_spatial"),
    }

    def ops(self):
        from debye_screen import polarization
        from debye_screen.specfun import ThermalParams

        def scan(channel, beta, mass, key):
            return lambda: polarization.scan_kernel(
                channel, self.inputs[key], ThermalParams(beta, mass), self.TOL)

        ops = [Op(name, scan(*spec)) for name, spec in self.SCANS.items()]
        too_far = lambda out: not out["gap"] <= IDENTITY_GAP  # noqa: E731
        ops.append(Op("identity_unit", lambda: static_identity(ThermalParams(1.0, 1.0)), too_far))
        # fails today: _f_hat integrates to the absolute target tol / c_f,
        # which is loose against m_D^2 = 6.4e-11 at beta = 20
        ops.append(Op("identity_cold", lambda: static_identity(ThermalParams(20.0, 1.0)), too_far))
        return ops

    def instrument(self, tracer):
        from debye_screen import debye, polarization
        tracer.wrap(polarization, "_f_hat", "polarization.node")
        tracer.wrap(polarization, "b_hat", "polarization.b_hat")
        tracer.wrap(polarization, "integrate_radial_angular", "quadrature.radial_angular",
                    value=lambda res: res.evaluations)
        tracer.wrap(debye, "debye_mass_sq", "debye.mass")
        tracer.wrap(polarization, "debye_mass_sq", "debye.mass")

    def layer_metrics(self, tracer, rounds):
        scans = tuple(self.SCANS)
        return {
            "polarization.scan_massless_s": tracer.per_round(
                "op", rounds, ("scan_hot_massless", "scan_massless")),
            "polarization.scan_massive_s": tracer.per_round("op", rounds, ("scan_massive",)),
            "polarization.scan_spatial_s": tracer.per_round("op", rounds, ("scan_spatial",)),
            "polarization.b_hat_s": tracer.per_round("polarization.b_hat", rounds, ("scan_spatial",)),
            "polarization.node_s": tracer.median_call("polarization.node", scans, rounds),
            "quadrature.kernel_evals": tracer.per_round(
                "quadrature.radial_angular", rounds, field="value"),
            "debye.mass_s": tracer.per_round("debye.mass", rounds),
        }

    def checks(self, rounds):
        import oracles
        from debye_screen import polarization
        from debye_screen.specfun import ThermalParams
        out = rounds[-1]
        found = [_deterministic(rounds)]
        for name in ("scan_hot_massless", "scan_massless", "scan_massive"):
            scan = out[name]
            if scan is None:
                continue
            _, beta, mass, key = self.SCANS[name]
            worst = max(abs(pt.f_hat - oracles.f_hat_temporal(pt.p_tilde_mag, beta, mass))
                        for pt in scan.points)
            nodes_ok = [pt.p_tilde_mag for pt in scan.points] == self.inputs[key]
            found.append(Check(f"{name}_vs_1d_reduction", nodes_ok and worst <= self.TOL,
                               f"max |f - ref| = {worst:.3e} (tol {self.TOL:g})"))
        if out["scan_spatial"] is not None:
            worst = max(abs(pt.b_hat - oracles.b_hat_spatial(pt.p_tilde_mag, 1.0))
                        for pt in out["scan_spatial"].points)
            found.append(Check("b_hat_vs_spectral_integral", worst <= self.TOL,
                               f"max |b - ref| = {worst:.3e} (tol {self.TOL:g})"))
        unit = out["identity_unit"]
        if unit is not None:
            ref = oracles.debye_mass_sq(1.0, 1.0)
            gap = _rel(-unit["extrapolated"], ref)
            found.append(Check("static_identity_vs_quadpack_mass",
                               gap <= IDENTITY_GAP and _rel(unit["m_d_sq"], ref) <= 1e-8,
                               f"f(0+) gap {gap:.3e}, series route gap "
                               f"{_rel(unit['m_d_sq'], ref):.3e}"))
        # the spatial channel's defining boundary value; its p -> 0+ limit is
        # not 0 (see the FOUND line in CHANGES.md), so only p = 0 is checked
        zero = polarization.f_hat_spatial(0.0, ThermalParams(1.0, 1.0), self.TOL)
        found.append(Check("spatial_static_zero", zero == 0.0, f"f_spatial(0) = {zero!r}"))
        return found


# ---------------------------------------------------------------------------
# screening
# ---------------------------------------------------------------------------

class Screening(Workload):
    name = "screening"
    threads = "1"
    TOL = 1e-7
    EPS = 0.05                 # mollifier width of the full and zeroth profiles
    LADDER = (0.4, 0.2, 0.1)
    TAIL_MU, TAIL_R = 5.0, 10.0

    def ops(self):
        from debye_screen import maxwell
        from debye_screen.specfun import ThermalParams
        unit = ThermalParams(1.0, 1.0)

        def profile(mode, radii, eps):
            return maxwell.screening_profile(
                maxwell.SourceSpec.smoothed_point(eps), unit, mode, radii, self.TOL)

        radii, probes = self.inputs["radii"], self.inputs["ladder_radii"]
        return [
            Op("full_profile", lambda: profile("full_kernel", radii, self.EPS)),
            Op("zeroth_profile", lambda: profile("zeroth_order", radii, self.EPS)),
            Op("width_ladder", lambda: [profile("full_kernel", probes, e) for e in self.LADDER]),
            Op("deep_tail", self.deep_tail),
        ]

    def deep_tail(self):
        from debye_screen import quadrature
        mu2 = self.TAIL_MU ** 2
        return quadrature.sine_transform_radial(
            lambda p: 1.0 / (p * p + mu2), [self.TAIL_R], self.TOL)

    def warm_up(self):
        # mpmath computes its quadrature nodes once per precision: 1.8 s of
        # the first deep-tail transform in a process and of no later one
        self.deep_tail()

    def instrument(self, tracer):
        from debye_screen import maxwell, polarization, quadrature
        tracer.wrap(maxwell, "scan_kernel", "maxwell.denominator_scan")
        tracer.wrap(maxwell, "debye_mass_sq", "debye.mass")
        tracer.wrap(polarization, "integrate_radial_angular", "quadrature.radial_angular",
                    value=lambda res: res.evaluations)
        tracer.wrap(quadrature, "_osc_integral", "quadrature.osc_radius",
                    value=lambda res: res[2])
        tracer.wrap(quadrature, "_osc_integral_mp", "quadrature.mp_tail")

    def layer_metrics(self, tracer, rounds):
        return {
            "maxwell.denominator_scan_s": tracer.median_call("maxwell.denominator_scan", None, rounds),
            "maxwell.width_ladder_s": tracer.per_round("op", rounds, ("width_ladder",)),
            "maxwell.radius_full_s": tracer.median_call("quadrature.osc_radius", ("full_profile",), rounds),
            "maxwell.radius_zeroth_s": tracer.median_call("quadrature.osc_radius", ("zeroth_profile",), rounds),
            "quadrature.osc_evals": tracer.per_round(
                "quadrature.osc_radius", rounds, ("full_profile", "zeroth_profile"), field="value"),
            "quadrature.mp_tail_s": tracer.per_round("quadrature.mp_tail", rounds, ("deep_tail",)),
            "quadrature.kernel_evals": tracer.per_round(
                "quadrature.radial_angular", rounds, field="value"),
            "debye.mass_s": tracer.per_round("debye.mass", rounds),
        }

    def checks(self, rounds):
        import oracles
        from debye_screen import debye
        from debye_screen.specfun import ThermalParams
        out = rounds[-1]
        ref_sq = oracles.debye_mass_sq(1.0, 1.0)
        prog_sq = debye.debye_mass_sq(ThermalParams(1.0, 1.0), 1e-8).m_d_sq
        m_d = math.sqrt(ref_sq)
        found = [
            _deterministic(rounds),
            Check("debye_mass_vs_quadpack",
                  _rel(prog_sq, ref_sq) <= 1e-8 and _rel(MD_SQ_UNIT, ref_sq) <= 1e-12,
                  f"program {prog_sq!r}, quadpack {ref_sq!r}, input scale {MD_SQ_UNIT!r}"),
        ]
        zeroth = out["zeroth_profile"]
        if zeroth is not None:
            worst = max(_rel(v, oracles.smeared_yukawa(r, m_d, self.EPS))
                        for r, v in zip(zeroth.r_grid, zeroth.values))
            found.append(Check("zeroth_vs_smeared_yukawa", worst <= self.TOL,
                               f"max relative gap {worst:.3e}"))
        full = out["full_profile"]
        if full is not None:
            r = np.array(full.r_grid)
            a = np.array(full.values)
            positive = bool(np.all(a > 0.0))
            rate = -np.polyfit(r, np.log(r * np.abs(a)), 1)[0] if positive else math.nan
            found.append(Check("full_kernel_rate", positive and abs(rate - m_d) <= 0.02 * m_d,
                               f"fitted rate {rate:.6f} against m_D {m_d:.6f}"))
        ladder = out["width_ladder"]
        if ladder is not None:
            ratios = [(p4 - p2) / (p2 - p1) for p4, p2, p1 in
                      zip(ladder[0].values, ladder[1].values, ladder[2].values)]
            found.append(Check("width_ladder_quadratic",
                               all(3.8 <= q <= 4.2 for q in ratios),
                               "difference ratios " + ", ".join(f"{q:.4f}" for q in ratios)))
        tail = out["deep_tail"]
        if tail is not None:
            mu, rr = self.TAIL_MU, self.TAIL_R
            gap = _rel(tail[0], math.exp(-mu * rr) / (4.0 * math.pi * rr))
            found.append(Check("deep_tail_vs_yukawa", gap <= 1e-6, f"relative gap {gap:.3e}"))
        return found


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

class Decay(Workload):
    name = "decay"
    threads = None
    TOL = 1e-8
    U = 0.5
    WIDTH = 1.0
    SAMPLES = {"lemma2_1m": 1_000_000, "lemma2_4m": 4_000_000}
    DIVERGENCE_RADII = (10.0, 100.0, 1000.0)
    DIVERGENCE_SAMPLES = 400_000

    def ops(self):
        from debye_screen import decay
        from debye_screen.quadrature import TestProfile
        from debye_screen.specfun import ThermalParams
        profile = TestProfile(kind="gaussian", width=self.WIDTH, support_radius=3.0 / self.WIDTH)

        def envelope(channel, mass, key):
            kc = decay.KernelConfig(channel=channel, u=self.U, profile=profile,
                                    params=ThermalParams(1.0, mass), tol=self.TOL)
            bc = decay.BoundConfig(regime="thermal_spatial", mass=mass)
            return lambda: decay.verify_bound_ratio(kc, bc, self.inputs[key])

        def lemma2(name):
            return lambda: decay.lemma2_check(self.SAMPLES[name], self.inputs["seed_" + name])

        return [
            Op("envelope_massive", envelope("scalar_m", 1.0, "radii_massive")),
            Op("envelope_massless", envelope("temporal_omega", 0.0, "radii_massless")),
            Op("lemma2_1m", lemma2("lemma2_1m")),
            Op("lemma2_4m", lemma2("lemma2_4m")),
            Op("divergence", lambda: decay.lemma2_divergence_control(
                self.DIVERGENCE_RADII, self.DIVERGENCE_SAMPLES, self.inputs["seed_divergence"])),
        ]

    def instrument(self, tracer):
        from debye_screen import decay
        tracer.wrap(decay, "thermal_kernel_imag", "decay.kernel")
        tracer.wrap(decay, "monte_carlo_6d", "quadrature.mc", memory=True)

    def layer_metrics(self, tracer, rounds):
        mc_s = tracer.per_round("quadrature.mc", rounds)
        samples = (sum(self.SAMPLES.values())
                   + len(self.DIVERGENCE_RADII) * self.DIVERGENCE_SAMPLES)
        peaks = [s.value for s in tracer.select("quadrature.mc", None, rounds)]
        return {
            "decay.radius_massive_s": tracer.median_call("decay.kernel", ("envelope_massive",), rounds),
            "decay.radius_massless_s": tracer.median_call("decay.kernel", ("envelope_massless",), rounds),
            "decay.envelope_s": tracer.per_round("op", rounds, ("envelope_massive", "envelope_massless")),
            "quadrature.mc_s": mc_s,
            "quadrature.mc_samples_per_s": samples / mc_s if mc_s > 0.0 else 0.0,
            "quadrature.mc_peak_mib": max(peaks) if peaks else 0.0,
        }

    def checks(self, rounds):
        import oracles
        out = rounds[-1]
        found = [_deterministic(rounds)]
        for name, channel, mass in (("envelope_massive", "scalar_m", 1.0),
                                    ("envelope_massless", "temporal_omega", 0.0)):
            rep = out[name]
            if rep is None:
                continue
            seps = np.array(rep.separations)
            ratios = np.array(rep.ratios)
            bound = np.exp(-mass * seps) if mass > 0.0 else (1.0 + seps) ** -3
            kernel = ratios * bound
            ref = oracles.kernel_imag(self.U, seps[-1], channel, mass, self.WIDTH)
            gap = _rel(kernel[-1], abs(ref))
            found.append(Check(f"{name}_vs_qawf", gap <= 1e-6,
                               f"|k({seps[-1]:.4f})| = {kernel[-1]:.6e}, QAWF {ref:.6e}, gap {gap:.2e}"))
            trend = np.polyfit(seps, np.log(ratios), 1)[0]
            found.append(Check(f"{name}_trend_flat", trend <= 0.01 and rep.bounded,
                               f"trend slope {trend:.4f}"))
            if mass > 0.0:
                rate = -np.polyfit(seps, np.log(kernel), 1)[0]
                found.append(Check("massive_rate_at_least_mass", rate >= 0.95 * mass,
                                   f"fitted rate {rate:.4f} against mass {mass}"))
        for name in self.SAMPLES:
            res = out[name]
            if res is None:
                continue
            z = abs(res.value - LEMMA2_REFERENCE) / res.error_estimate
            found.append(Check(f"{name}_vs_3d_reduction", z <= MC_SIGMAS,
                               f"{res.value:.5f} +- {res.error_estimate:.5f} ({z:.2f} sigma)"))
        div = out["divergence"]
        if div is not None:
            from debye_screen.quadrature import CubicBallSampler
            sampler_r = CubicBallSampler().radius
            zs = [abs(est - oracles.truncated_pair_integral(r))
                  / oracles.truncated_pair_stderr(r, sampler_r, self.DIVERGENCE_SAMPLES)
                  for r, est in zip(div.radii, div.estimates)]
            found.append(Check("divergence_ladder_grows",
                               div.growing and all(z <= MC_SIGMAS for z in zs),
                               "sigmas from the closed form " + ", ".join(f"{z:.2f}" for z in zs)))
        return found


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("debye", "screening", "polarization", "decay", "limits")
CLI_TIMEOUT_S = 60.0


class Cli(Workload):
    name = "cli"
    threads = None

    def __init__(self, inputs, root):
        super().__init__(inputs, root)
        self.out_dir = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("DEBYE_SCREEN_THREADS", None)
        self.bad_config = os.path.join(self.out_dir, "bad.cfg")
        with open(self.bad_config, "w", encoding="utf-8") as fh:
            fh.write(f"subcommand=debye\nparams.beta={inputs['bad_beta']!r}\n")

    def cpu_seconds(self):
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + kids.ru_utime + kids.ru_stime

    def _cli(self, sub, *args) -> int:
        cmd = [sys.executable, "-m", "debye_screen.cli", sub, "--quiet", *args]
        return subprocess.run(cmd, env=self.env, cwd=self.out_dir, timeout=CLI_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

    def _default_run(self, sub) -> dict:
        # the same paths every round: they are part of the config the
        # artifacts embed, and reruns must be byte-identical
        stem = os.path.join(self.out_dir, sub)
        code = self._cli(sub, "--out-json", stem + ".json", "--out-csv", stem + ".csv",
                         "--seed", str(self.inputs["cli_seed"]))
        arts = {}
        for ext in (".json", ".csv"):
            if os.path.exists(stem + ext):
                with open(stem + ext, "rb") as fh:
                    arts[ext] = fh.read()
                os.remove(stem + ext)
        return {"exit": code, "artifacts": arts}

    def ops(self):
        ops = [Op(sub, lambda sub=sub: self._default_run(sub), lambda out: out["exit"] != 0)
               for sub in SUBCOMMANDS]
        ops.append(Op("bad_config", lambda: {"exit": self._cli("debye", "--config", self.bad_config)},
                      lambda out: out["exit"] != 2))
        return ops

    def layer_metrics(self, tracer, rounds):
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        found = {f"cli.{sub}_s": tracer.median_call("op", (sub,), rounds) for sub in SUBCOMMANDS}
        found["cli.child_peak_mib"] = peak
        return found

    def checks(self, rounds):
        import oracles
        if len(rounds) == 1:
            # byte-identical reruns need a second run of every subcommand
            rounds = rounds + [{op.name: op.run() for op in self.ops()}]
        out = rounds[0]
        found = []
        for sub in SUBCOMMANDS:
            if out[sub] is None:
                continue
            arts = out[sub]["artifacts"]
            same = all(r[sub] is not None and r[sub]["artifacts"] == arts for r in rounds[1:])
            found.append(Check(f"{sub}_byte_identical", same and len(arts) == 2,
                               f"{len(rounds)} runs"))
            try:
                doc = json.loads(arts[".json"])
                failing = [c["name"] for c in doc["checks"] if not c["pass"]]
            except (KeyError, ValueError) as exc:
                found.append(Check(f"{sub}_json_checks_pass", False, f"unreadable: {exc}"))
                continue
            found.append(Check(f"{sub}_json_checks_pass", not failing,
                               f"{len(doc['checks'])} checks, failing: {failing}"))
            if sub == "debye":
                ref = oracles.debye_mass_sq(1.0, 1.0)
                gap = _rel(doc["results"]["m_d_sq"], ref)
                found.append(Check("debye_mass_vs_quadpack", gap <= 1e-8, f"relative gap {gap:.3e}"))
        return found

    def close(self):
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
        os.rmdir(self.out_dir)


WORKLOADS = {cls.name: cls for cls in (KernelScan, Screening, Decay, Cli)}
