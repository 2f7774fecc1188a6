import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fwm import residuals
from fwm.fockspace import FockBasis, ShiftOperator
from fwm.model import (ConfigError, ModelParams, PerturbativeCoefficients,
                       coefficient_derivatives, coefficients)
from fwm.oracle import build_hamiltonian
from fwm.residuals import eom_residual, etcr_residual, residual_scaling_slope
from fwm.sweep import FIG_OMEGAS

from csr_reference import (MONOMIALS, csr_hamiltonian, csr_heisenberg, csr_monomial,
                           low_block)

COEFFICIENTS = [f"{x}{i}" for x in "fgh" for i in range(1, 6)]


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


def _dense(op: ShiftOperator, shape) -> np.ndarray:
    rows, cols, vals = op.entries(shape)
    out = np.zeros((np.prod(shape),) * 2, dtype=complex)
    out[rows, cols] = vals
    return out


@settings(max_examples=40, deadline=None)
@given(cut=st.tuples(*[st.integers(0, 5)] * 3),
       omegas=st.tuples(*[st.floats(-3.0, 3.0)] * 3), g=st.floats(0.0, 2.0))
def test_operators_match_csr_products(cut, omegas, g):
    """Every Heisenberg monomial (each coefficient set to 1, the others to 0)
    and H equal their CSR products element for element, on random small
    bases whose cutoffs clip the creation operators."""
    basis = FockBasis(cut)
    zero = dict.fromkeys(MONOMIALS, 0.0)
    for name, word in MONOMIALS.items():
        unit = PerturbativeCoefficients(**{**zero, name: 1.0}, t=0.0)
        op = residuals._heisenberg_matrices(unit, basis)["fgh".index(name[0])]
        want = csr_monomial(basis.shape, word).toarray()
        assert np.array_equal(_dense(op, basis.shape), want), word
    params = ModelParams(*omegas, g)
    H = build_hamiltonian(params, basis)
    want = csr_hamiltonian(params, basis.shape)
    assert np.array_equal(H.matrix.toarray(), want.toarray())
    assert H.matrix.nnz == want.nnz


@pytest.mark.parametrize("cutoffs", [(5, 4, 4), (10, 8, 8), (7, 5, 9)])
def test_sector_norm_matches_dense_norm(cutoffs):
    """The per-sector low-block norm of every ETCR and EOM defect equals the
    dense 2-norm of the low block of the same defect built from independent
    CSR ladders."""
    p = ModelParams.from_detuning(-1.3, 0.07)
    t = 0.9
    basis = residuals._validate_cutoffs(cutoffs)
    low_shape = tuple(c - 2 for c in cutoffs)
    ops = residuals._heisenberg_matrices(coefficients(p, t), basis)
    rates = residuals._heisenberg_matrices(coefficient_derivatives(p, t), basis)
    H = build_hamiltonian(p, basis).shifts
    eye = ShiftOperator({(0, 0, 0): np.ones(basis.shape)})
    got = [x @ x.H - x.H @ x - eye for x in ops]
    got += [dx - 1j * (H @ x - x @ H) for x, dx in zip(ops, rates)]

    ops = csr_heisenberg(coefficients(p, t), basis.shape)
    rates = csr_heisenberg(coefficient_derivatives(p, t), basis.shape)
    H = csr_hamiltonian(p, basis.shape)
    eye = sp.identity(basis.dimension, format="csr")
    defects = [x @ x.conj().T - x.conj().T @ x - eye for x in ops]
    defects += [dx - 1j * (H @ x - x @ H) for x, dx in zip(ops, rates)]
    for M, want in zip(got, defects):
        dense = np.linalg.norm(low_block(want, basis.shape, low_shape), 2)
        assert residuals._block_norm(M, basis) == pytest.approx(dense, rel=1e-12)


def test_cached_monomials_are_read_only():
    """The Heisenberg monomials are built once per basis and shared by every
    residual call, so none of their weights can be written."""
    basis = FockBasis((5, 4, 4))
    monomials = residuals._heisenberg_monomials(basis)
    assert residuals._heisenberg_monomials(FockBasis((5, 4, 4))) is monomials
    assert [[f for f, _ in terms] for terms in monomials] == [
        [f"{x}{i}" for i in range(1, 6)] for x in "fgh"]
    for terms in monomials:
        for _, op in terms:
            for w in op.values():
                with pytest.raises(ValueError, match="read-only"):
                    w[(0,) * 3] = 1.0


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


FIG2_DELTA = abs(2 * FIG_OMEGAS[0] - FIG_OMEGAS[1] - FIG_OMEGAS[2])


@pytest.mark.parametrize("p, t", [
    (ModelParams.from_detuning(-1.5, 0.08), 0.9),
    (ModelParams(*FIG_OMEGAS, 0.05 * FIG2_DELTA), 1.0 / FIG2_DELTA),
], ids=["detuning", "fig2_optical"])
def test_eom_halving_ratio_is_8(p, t):
    """The solution is quadratic in g and H linear, so the EOM defect is
    exactly its g³ term: halving g divides it by 8 (a wrong g² coefficient
    would leave a ratio near 4).  At the optical frequencies the defect is a
    difference of terms ~ω, so roundoff sets the tolerance."""
    half = dataclasses.replace(p, g=p.g / 2)
    ratio = eom_residual(p, t, (8, 6, 6)) / eom_residual(half, t, (8, 6, 6))
    assert ratio == pytest.approx(8.0, rel=1e-9)


def test_unknown_residual_kind_rejected():
    p = ModelParams.from_detuning(-1.0, 0.05)
    for kind in ("ETCR", "eomm"):
        with pytest.raises(ConfigError, match=repr(kind)):
            residual_scaling_slope(p, 1.0, (5, 4, 4), kind)


def test_eom_magnitude_constant():
    """Operator-norm EOM residual at g·t = 0.01, relative to g²: the constant
    was measured (~28 at cutoffs (10,8,8), occupation-polynomial growth) and
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
    p = ModelParams.from_detuning(-1.3, 0.07)
    t = 0.9
    dt = 1e-6 / abs(p.delta_omega1)
    cp = coefficients(p, t + dt)
    cm = coefficients(p, t - dt)
    an = coefficient_derivatives(p, t)
    for k in COEFFICIENTS:
        fd = (getattr(cp, k) - getattr(cm, k)) / (2 * dt)
        assert fd == pytest.approx(getattr(an, k), rel=1e-6, abs=1e-9)
