"""Tests of the propagation kernel: the batched per-sector eigendecomposition
behind ``fwm.oracle.evolve_grid``, applied to arbitrary states."""

import numpy as np
import scipy.sparse.linalg as spla

from fwm.fockspace import FockBasis, FockStateVector
from fwm.model import ModelParams
from fwm.oracle import build_hamiltonian, evolve_grid


def small_system(cutoffs=(6, 4, 5), seed=5):
    """Distinct mode frequencies, a clipped basis and a random state that
    populates every charge sector."""
    rng = np.random.default_rng(seed)
    basis = FockBasis(cutoffs)
    H = build_hamiltonian(ModelParams(1.3, 0.2, -0.7, 0.35), basis)
    psi = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi /= np.linalg.norm(psi)
    return H, FockStateVector(amplitudes=psi, basis=basis)


def test_propagation_matches_expm():
    H, psi0 = small_system()
    assert H.clipped_transitions > 0
    t = 0.3
    out = evolve_grid(H, psi0, [t])[0]
    ref = spla.expm_multiply((-1j * t) * H.matrix, psi0.amplitudes)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-9
