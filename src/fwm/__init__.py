"""Degenerate-pump four-wave-mixing entanglement witnesses.

Second-order perturbative Heisenberg solution of
H = ω_a a†a + ω_b b†b + ω_c c†c + g(a²b†c† + a†²bc), closed-form moment
witnesses for every two-mode pair and three-mode cut, an exact truncated
Fock-space propagation oracle, and a sweep/certification CLI.
"""
from .fockspace import (CutoffError, FockBasis, FockStateVector, MomentSpec,
                        coherent_state, cutoffs_for, moments)
from .model import (ConfigError, CoherentInput, ModelParams,
                    PerturbativeCoefficients, coefficient_derivatives,
                    coefficients)
from .oracle import (CompareResult, Hamiltonian, build_hamiltonian,
                     certification_summary, compare, evolve_grid, run,
                     witness_grid)
from .residuals import eom_residual, etcr_residual, residual_scaling_slope
from .sweep import (RunConfig, Series, UsageError, default_compare_config,
                    presets, rows_to_csv, rows_to_json, run_compare, run_sweep)
from .witnesses import Criterion, InvalidWitness, WitnessId, evaluate

__version__ = "0.1.0"

__all__ = [
    "CutoffError", "FockBasis", "FockStateVector", "MomentSpec",
    "coherent_state", "cutoffs_for", "moments",
    "ConfigError", "CoherentInput", "ModelParams", "PerturbativeCoefficients",
    "coefficient_derivatives", "coefficients",
    "CompareResult", "Hamiltonian", "build_hamiltonian",
    "certification_summary", "compare", "evolve_grid", "run",
    "witness_grid",
    "eom_residual", "etcr_residual", "residual_scaling_slope",
    "RunConfig", "Series", "UsageError", "default_compare_config",
    "presets", "rows_to_csv", "rows_to_json", "run_compare", "run_sweep",
    "Criterion", "InvalidWitness", "WitnessId", "evaluate",
    "__version__",
]
