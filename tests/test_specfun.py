import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from debye_screen.errors import ConvergenceError
from debye_screen.specfun import (
    ThermalParams,
    _fermi,
    alternating_sum,
    bessel_k,
    dispersion,
)

# mpmath besselk, 20 digits
BESSEL_TABLE = {
    (0, 0.5): 0.92441907122766586178,
    (0, 1.0): 0.42102443824070833334,
    (0, 3.0): 0.034739504386279248072,
    (0, 10.0): 1.7780062316167651811e-5,
    (1, 0.5): 1.6564411200033008937,
    (1, 1.0): 0.60190723019723457474,
    (1, 3.0): 0.040156431128194184377,
    (1, 10.0): 1.8648773453825584597e-5,
    (2, 0.5): 7.5501835512408694366,
    (2, 1.0): 1.6248388986351774828,
    (2, 3.0): 0.061510458471742037657,
    (2, 10.0): 2.1509817006932768731e-5,
    (3, 0.5): 62.057909529930256386,
    (3, 1.0): 7.101262824737944506,
    (3, 3.0): 0.12217037575718356792,
    (3, 10.0): 2.7252700256598692089e-5,
}


class TestThermalParams:
    def test_fields_frozen(self):
        tp = ThermalParams(beta=1.0, mass=1.0)
        with pytest.raises(Exception):
            tp.beta = 2.0

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            ThermalParams(beta=0.0, mass=1.0)
        with pytest.raises(ValueError):
            ThermalParams(beta=-1.0, mass=1.0)

    def test_rejects_negative_mass_and_coupling(self):
        with pytest.raises(ValueError):
            ThermalParams(beta=1.0, mass=-0.1)
        with pytest.raises(ValueError):
            ThermalParams(beta=1.0, mass=1.0, lam=-1.0)

    @pytest.mark.parametrize("field", ["mass", "charge_e", "lam"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_mass_charge_and_coupling(self, field, value):
        # beta = inf is the ground state; these have no such reading
        with pytest.raises(ValueError, match=field):
            ThermalParams(**{"beta": 1.0, "mass": 1.0, field: value})

    def test_ground_state_sentinel(self):
        tp = ThermalParams(beta=math.inf, mass=1.0)
        assert tp.is_ground


class TestDispersion:
    def test_pythagorean(self):
        assert dispersion(4.0, 3.0) == 5.0

    def test_rest_energy(self):
        assert dispersion(0.0, 2.0) == 2.0

    def test_massless(self):
        assert dispersion(7.0, 0.0) == 7.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dispersion(-1.0, 1.0)
        with pytest.raises(ValueError):
            dispersion(1.0, -1.0)

    @given(p=st.floats(0.0, 1e3), q=st.floats(0.0, 1e3), m=st.floats(0.0, 1e3))
    def test_monotone_and_lipschitz(self, p, q, m):
        lo, hi = sorted((p, q))
        assert dispersion(lo, m) <= dispersion(hi, m)
        # 1-Lipschitz in momentum
        assert abs(dispersion(hi, m) - dispersion(lo, m)) <= (hi - lo) + 1e-9


class TestFermiFactor:
    """_fermi, the Fermi factor inside every kernel and Debye-mass integrand."""

    def test_half_at_zero(self):
        assert _fermi(1.0, np.array([0.0])).tolist() == [0.5]

    def test_closed_form_spot(self):
        assert _fermi(1.0, 1.0) == pytest.approx(0.26894142136999512075, rel=1e-14)

    def test_deep_suppression_no_overflow(self):
        # beta * omega = 1000 is past the 746 cap
        v = _fermi(10.0, np.array([100.0]))[0]
        assert 0.0 <= v < 1e-300

    def test_complement_identity(self):
        for bw in (0.1, 1.0, 10.0, 300.0):
            f = _fermi(1.0, bw)
            g = 1.0 - 1.0 / (1.0 + math.exp(-bw))
            assert f == pytest.approx(g, abs=1e-15)

    @given(beta=st.floats(0.05, 50.0), omega=st.floats(0.0, 50.0))
    @settings(max_examples=60)
    def test_partial_sums_bracket(self, beta, omega):
        # alternating exponential series partial sums bracket the factor
        f = _fermi(beta, omega)
        s = 0.0
        for j in range(40):
            s += (-1) ** j * math.exp(-(j + 1) * beta * omega)
            if j % 2 == 0:
                assert f <= s + 1e-12
            else:
                assert s - 1e-12 <= f

    def test_derivative_matches_finite_difference(self):
        # the Debye-mass integrand's beta f (1 - f) is minus df/domega
        beta, omega, h = 1.3, 0.7, 1e-6
        fd = (_fermi(beta, omega + h) - _fermi(beta, omega - h)) / (2 * h)
        f = _fermi(beta, omega)
        assert -beta * f * (1.0 - f) == pytest.approx(fd, rel=1e-8)


class TestElementwise:
    """dispersion and _fermi map arrays elementwise; dispersion maps scalars to floats."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 20.0, math.inf])
    def test_arrays_match_scalars(self, beta):
        omega = np.array([0.0, 1e-300, 1e-3, 0.5, 1.0, 7.0, 800.0])
        if math.isfinite(beta):
            # _fermi takes finite beta only; the ground state never reaches it
            got = _fermi(beta, omega)
            assert got.shape == omega.shape
            assert got.tolist() == [_fermi(beta, np.array([w]))[0] for w in omega.tolist()]
            closed = [math.exp(-beta * w) / (1.0 + math.exp(-beta * w)) for w in omega.tolist()]
            assert got.tolist() == pytest.approx(closed, rel=1e-15, abs=0.0)
        energies = dispersion(omega, 0.7)
        assert energies.shape == omega.shape
        assert energies.tolist() == [dispersion(p, 0.7) for p in omega.tolist()]
        assert energies.tolist() == pytest.approx([math.hypot(p, 0.7) for p in omega], rel=1e-15)

    def test_scalars_give_floats(self):
        assert type(dispersion(4.0, 3.0)) is float

    def test_overflowing_product_gives_zero(self):
        # beta * omega past the largest float is capped at 746, and e^{-746} = 0
        assert _fermi(1e300, 1e10) == 0.0
        assert _fermi(1e300, np.array([0.0, 1e10])).tolist() == [0.5, 0.0]

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            dispersion(np.array([1.0, -1.0]), 1.0)


class TestBesselK:
    @pytest.mark.parametrize("order,z", sorted(BESSEL_TABLE))
    def test_table(self, order, z):
        assert bessel_k(order, z) == pytest.approx(BESSEL_TABLE[(order, z)], rel=1e-12)

    def test_small_z_leading_order(self):
        z = 1e-6
        assert z * z * bessel_k(2, z) == pytest.approx(2.0, rel=1e-4)

    def test_recurrence_at_3(self):
        k1, k2, k3 = bessel_k(1, 3.0), bessel_k(2, 3.0), bessel_k(3, 3.0)
        assert k3 - k1 - (4.0 / 3.0) * k2 == pytest.approx(0.0, abs=1e-12 * k3)

    @given(z=st.floats(0.1, 50.0))
    @settings(max_examples=80)
    def test_recurrence_sweep(self, z):
        for n in (1, 2):
            lhs = bessel_k(n + 1, z)
            rhs = bessel_k(n - 1, z) + (2.0 * n / z) * bessel_k(n, z)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_crossover_continuity(self):
        # series/continued-fraction switch at z=2 must not leave a seam
        below, above = bessel_k(2, 1.9999), bessel_k(2, 2.0001)
        assert below == pytest.approx(0.25379912065160436604, rel=1e-12)
        assert above == pytest.approx(0.25372039552383057713, rel=1e-12)

    def test_deep_argument(self):
        assert bessel_k(2, 700.0) == pytest.approx(4.6831281768188282127e-306, rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_k(2, 0.0)
        with pytest.raises(ValueError):
            bessel_k(2, -1.0)
        with pytest.raises(ValueError):
            bessel_k(4, 1.0)


class TestAlternatingSum:
    def test_geometric(self):
        res = alternating_sum(lambda j: math.exp(-(j + 1.0)), tol=1e-10, max_terms=200)
        assert res.value == pytest.approx(1.0 / (1.0 + math.e), abs=2e-10)
        assert res.remainder_bound <= 1e-10

    def test_zero_series(self):
        res = alternating_sum(lambda j: 0.0, tol=1e-10, max_terms=50)
        assert res.value == 0.0
        assert res.terms_used <= 2

    def test_bessel_tail(self):
        # direct 30-term oracle: sum_j (-1)^j K2(5(j+1))  [mpmath, 20 digits]
        res = alternating_sum(lambda j: bessel_k(2, (j + 1) * 5.0), tol=1e-12, max_terms=100)
        assert res.value == pytest.approx(0.0052875449836569700935, abs=1e-12)

    def test_nonconvergence_carries_estimate(self):
        with pytest.raises(ConvergenceError) as exc:
            alternating_sum(lambda j: 1.0 / (j + 1.0), tol=1e-12, max_terms=30)
        assert exc.value.estimate is not None
