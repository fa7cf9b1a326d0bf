"""Workload inputs.

Momentum nodes and radii are stratified draws: the stated range is cut
into as many equal strata as there are points and one point is drawn
uniformly inside each stratum, so the grid is strictly increasing,
evenly spread and made of generic values.

These abscissas are one fixed draw, the same for every seed, because the
work of the package's adaptive integrators jumps with the abscissa (one
massless kernel node takes 17k to 82k evaluations within 0.1 of p = 1).
Seeded draws would make round_s measure the draw; README.md gives the
figures. The seed drives what does not change the amount of work: the
Monte Carlo seeds, the CLI's --seed and the bad config's value.

Only numpy is imported here, so the set-up probe times the package
import and nothing of the benchmark's checks.
"""

from __future__ import annotations

import math

import numpy as np

# m_D^2 at beta = m = e = 1, from scipy QUADPACK on the defining integral
# (e^2 beta / pi^2) int p^2 n_F (1 - n_F) dp; oracles.debye_mass_sq
# recomputes it and the screening checks compare it with the program.
MD_SQ_UNIT = 0.1437971725922878

WORKLOADS = ("kernel_scan", "screening", "decay", "cli")
ABSCISSA_DRAW = 0   # seed of the fixed draw of nodes and radii


def stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi)."""
    edges = np.linspace(lo, hi, n + 1)
    return [float(x) for x in edges[:-1] + rng.random(n) * np.diff(edges)]


def log_stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """Stratified draw on a logarithmic scale of [lo, hi)."""
    return [math.exp(x) for x in stratified(rng, math.log(lo), math.log(hi), n)]


def _mc_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    fixed = np.random.default_rng([ABSCISSA_DRAW, WORKLOADS.index(workload)])
    if workload == "kernel_scan":
        return {
            "nodes_hot_massless": stratified(fixed, 0.25, 4.0, 16),
            "nodes_massless": stratified(fixed, 0.25, 4.0, 16),
            "nodes_massive": stratified(fixed, 0.25, 4.0, 16),
            "nodes_spatial": stratified(fixed, 0.25, 4.0, 16),
        }
    if workload == "screening":
        m_d = math.sqrt(MD_SQ_UNIT)
        return {
            "radii": stratified(fixed, 5.0 / m_d, 15.0 / m_d, 8),
            "ladder_radii": stratified(fixed, 5.0 / m_d, 15.0 / m_d, 2),
        }
    if workload == "decay":
        return {
            "radii_massive": stratified(fixed, 6.0, 14.0, 24),
            "radii_massless": log_stratified(fixed, 2.0, 15.0, 12),
            "seed_lemma2_1m": _mc_seed(rng),
            "seed_lemma2_4m": _mc_seed(rng),
            "seed_divergence": _mc_seed(rng),
        }
    return {
        "cli_seed": _mc_seed(rng),
        "bad_beta": -float(rng.uniform(0.5, 2.0)),
    }
