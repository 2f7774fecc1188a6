"""Self-consistency residuals of the perturbative operator solution.

Both checks build the Heisenberg operators as weighted shifts
(`fockspace.ShiftOperator`) on a truncated Fock space, from the same ladders
as the oracle's Hamiltonian H, and measure an operator norm on the
low-occupation block (every mode at least 3 below its cutoff), which
provably excludes all truncation edge artifacts for these quadratic
monomials:

  * equal-time commutator defect  ‖[x(t), x†(t)] − 1‖
  * equation-of-motion defect     ‖ẋ(t) − i[H, x(t)]‖

Every term of a(t), b(t), c(t) and H shifts the Manley–Rowe charges
(n_a + 2n_b, n_b − n_c) by a fixed amount, so each defect maps one charge
sector to one other and its 2-norm on the low block is the largest over the
block's sectors: M†M, formed as weighted shifts, is gathered into small
sector blocks (`oracle.sector_blocks`) for batched ``eigvalsh`` calls.

For the second-order solution both residuals vanish through O(g²), so their
numeric values scale as g³ (asserted by the scaling tests).  The solution is
quadratic in g and H linear, so the EOM defect is exactly its g³ term.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator

import numpy as np

from .fockspace import FockBasis, ShiftOperator, ladders
from .model import (HEISENBERG_TERMS, ConfigError, ModelParams,
                    PerturbativeCoefficients, coefficient_derivatives, coefficients)
from .oracle import build_hamiltonian, sector_blocks

# Largest low-occupation block (states) accepted; bounds the Heisenberg
# weight tensors, which are built on the full basis around it.
MAX_LOW_BLOCK = 2048


@functools.lru_cache
def _heisenberg_monomials(basis: FockBasis):
    """The (coefficient field, ladder word product) terms of a, b and c.

    Cached per basis, as `ladders` is, so their weights are read-only."""
    A, B, C = ladders(basis)
    ops = {"a": A, "b": B, "c": C, "A": A.H, "B": B.H, "C": C.H}

    def product(word):
        out = functools.reduce(operator.matmul, (ops[x] for x in word))
        for w in out.values():
            w.flags.writeable = False
        return out
    return tuple(tuple((f, product(w)) for f, w, *_ in terms) for terms in HEISENBERG_TERMS.values())


def _heisenberg_matrices(c: PerturbativeCoefficients, basis: FockBasis):
    """a(t), b(t), c(t) as weighted shifts from a coefficient set."""
    return tuple(functools.reduce(operator.add, (getattr(c, f) * op for f, op in terms))
                 for terms in _heisenberg_monomials(basis))


def _block_norm(M: ShiftOperator, basis: FockBasis) -> float:
    """‖M‖₂ on the low-occupation block FockBasis(cutoffs − 3), a corner of
    the basis: the square root of the largest eigenvalue of (PMP)†(PMP)
    over the block's charge sectors, where it is block-diagonal (P projects
    on the block; M is cut to its grid)."""
    low = FockBasis(tuple(c - 3 for c in basis.cutoffs))
    cut = ShiftOperator({d: w[tuple(map(slice, low.shape))] for d, w in M.items()})
    return math.sqrt(max(float(np.linalg.eigvalsh(blocks).max())
                         for _, blocks in sector_blocks(cut.H @ cut, low)))


def _validate_cutoffs(cutoffs) -> FockBasis:
    if any(c < 4 for c in cutoffs):
        raise ConfigError(f"residual checks need cutoffs >= 4, got {cutoffs!r}")
    if math.prod(c - 2 for c in cutoffs) > MAX_LOW_BLOCK:
        raise ConfigError(f"cutoffs {cutoffs!r} give a low-occupation block above "
                          f"{MAX_LOW_BLOCK} states")
    return FockBasis(tuple(int(c) for c in cutoffs))


def etcr_residual(params: ModelParams, t: float, cutoffs) -> float:
    """max over modes of ‖[x(t), x†(t)] − 1‖ on the low-occupation block."""
    basis = _validate_cutoffs(cutoffs)
    ops = _heisenberg_matrices(coefficients(params, t), basis)
    eye = ShiftOperator({(0, 0, 0): np.ones(basis.shape)})
    return max(_block_norm(x @ x.H - x.H @ x - eye, basis) for x in ops)


def eom_residual(params: ModelParams, t: float, cutoffs) -> float:
    """max over modes of the Heisenberg equation defect ‖ẋ(t) − i[H, x(t)]‖
    on the low-occupation block, with the analytic ẋ(t) and the oracle's H."""
    basis = _validate_cutoffs(cutoffs)
    H = build_hamiltonian(params, basis).shifts
    ops = _heisenberg_matrices(coefficients(params, t), basis)
    rates = _heisenberg_matrices(coefficient_derivatives(params, t), basis)
    return max(_block_norm(dx - 1j * (H @ x - x @ H), basis)
               for x, dx in zip(ops, rates))


def residual_scaling_slope(params: ModelParams, t: float, cutoffs,
                           kind: str = "etcr") -> float:
    """Log-log slope of the residual over the couplings g, g/2, g/4
    (expect ≈ 3); ``kind`` is "etcr" or "eom"."""
    fn = {"etcr": etcr_residual, "eom": eom_residual}.get(kind)
    if fn is None:
        raise ConfigError(f"unknown residual kind {kind!r}; expected etcr or eom")
    gs = [params.g / 2 ** k for k in range(3)]
    vals = [fn(dataclasses.replace(params, g=g), t, cutoffs) for g in gs]
    if min(vals) <= 0.0:
        return float("inf")
    return float(np.polyfit(np.log(gs), np.log(vals), 1)[0])
