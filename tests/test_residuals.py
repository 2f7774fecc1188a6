import numpy as np
import pytest

from fwm.model import ConfigError, ModelParams, coefficient_derivatives, coefficients
from fwm.residuals import eom_residual, etcr_residual, residual_scaling_slope


def test_zero_at_t0():
    p = ModelParams.from_detuning(-2.0, 0.3)
    assert etcr_residual(p, 0.0, (5, 4, 4)) < 1e-13


def test_zero_at_g0():
    p = ModelParams(1.1, 0.3, 0.7, 0.0)
    assert etcr_residual(p, 1.7, (5, 4, 4)) < 1e-13
    assert eom_residual(p, 1.7, (5, 4, 4)) < 1e-12


def test_oversized_low_block_rejected():
    p = ModelParams.from_detuning(-2.0, 0.3)
    with pytest.raises(ConfigError, match="2048"):
        etcr_residual(p, 0.5, (100, 100, 100))
    with pytest.raises(ConfigError, match="2048"):
        eom_residual(p, 0.5, (4, 4, 2051))


def test_cutoff_too_small_rejected():
    p = ModelParams.from_detuning(-2.0, 0.3)
    with pytest.raises(ConfigError):
        etcr_residual(p, 0.5, (3, 4, 4))
    with pytest.raises(ConfigError):
        eom_residual(p, 0.5, (4, 4, 3))


@pytest.mark.parametrize("kind", ["etcr", "eom"])
def test_residual_scaling_order_g3(kind):
    """Halving g must cut both residuals by at least 6x (slope >= 2.5)."""
    p = ModelParams.from_detuning(-1.0, 0.05)
    slope = residual_scaling_slope(p, 1.0, (10, 8, 8), kind)
    assert slope >= 2.5


@pytest.mark.parametrize("kind", ["etcr", "eom"])
def test_halving_ratio_at_least_6(kind):
    from fwm.residuals import eom_residual, etcr_residual
    fn = etcr_residual if kind == "etcr" else eom_residual
    p1 = ModelParams.from_detuning(-1.5, 0.08)
    p2 = ModelParams.from_detuning(-1.5, 0.04)
    r1 = fn(p1, 0.9, (8, 6, 6))
    r2 = fn(p2, 0.9, (8, 6, 6))
    assert r1 / r2 >= 6.0


def test_eom_magnitude_constant():
    """Operator-norm EOM residual at g·t = 0.01, relative to g²: the constant
    was measured (~26 at cutoffs (10,8,8), occupation-polynomial growth) and
    frozen here with margin."""
    p = ModelParams.from_detuning(-1.0, 0.01)
    r = eom_residual(p, 1.0, (10, 8, 8))
    assert r / p.g ** 2 <= 50.0


def test_residual_insensitive_to_common_frequency_shift():
    p0 = ModelParams.from_detuning(-2.0, 0.1)
    p1 = ModelParams(p0.omega_a + 0.75, p0.omega_b + 0.75, p0.omega_c + 0.75, 0.1)
    r0 = etcr_residual(p0, 0.8, (7, 6, 6))
    r1 = etcr_residual(p1, 0.8, (7, 6, 6))
    assert r0 == pytest.approx(r1, rel=1e-10)


def test_eom_derivatives_consistent_with_finite_difference():
    """Replacing the analytic coefficient derivatives by central differences
    must reproduce the same residual to the differencing error."""
    from fwm.residuals import _coeff_dict, _heisenberg_matrices, _low_block, _block_norm
    from fwm.fockspace import FockBasis
    import scipy.sparse as sp

    p = ModelParams.from_detuning(-1.3, 0.07)
    t = 0.9
    basis = FockBasis((7, 6, 6))
    dt = 1e-6 / abs(p.delta_omega1)
    cp = _coeff_dict(p, t + dt)
    cm = _coeff_dict(p, t - dt)
    fd = {k: (cp[k] - cm[k]) / (2 * dt) for k in cp}
    an = coefficient_derivatives(p, t)
    for k in fd:
        assert fd[k] == pytest.approx(an[k], rel=1e-6, abs=1e-9)
