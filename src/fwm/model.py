"""Model parameters, coherent inputs, and the second-order coefficient set.

The interaction couples two pump quanta (mode a) to one signal (b) plus one
idler (c) quantum.  The Heisenberg operators through second order in the
coupling g are

    a(t) = f1 a + f2 a†bc + f3 ab†bc†c + f4 a†a²c†c + f5 a†a²bb†
    b(t) = g1 b + g2 a²c† + g3 a²a†²b + g4 a†abcc† + g5 aa†bcc†
    c(t) = h1 c + h2 a²b† + h3 a²a†²c + h4 a†acbb† + h5 aa†cbb†

with all fifteen coefficients closed functions of (Δω₁, g, t), where
Δω₁ = 2ω_a − ω_b − ω_c.  Only Δω₁·t and g·t enter any observable; the ω's
are treated as angular frequencies (s⁻¹).

`coefficients` takes a scalar time or an array of times; for an array every
coefficient is an array over t, computed in one numpy pass.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Below this value of |Δω₁·t| the coefficient helpers switch to a 4-term
# Taylor series so the two-photon-resonance limit is smooth.
SERIES_SWITCHOVER = 1e-4

# g·t beyond this is outside the documented validity regime of the solution.
VALIDITY_GT = 0.1


class ConfigError(ValueError):
    """Invalid physical configuration (bad frequency, coupling, cutoff...)."""


@dataclass(frozen=True)
class ModelParams:
    """Mode angular frequencies and coupling strength, all in s⁻¹."""

    omega_a: float
    omega_b: float
    omega_c: float
    g: float

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "omega_c", "g"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if self.g < 0:
            raise ConfigError(f"coupling g must be nonnegative, got {self.g!r}")

    @property
    def delta_omega1(self) -> float:
        return 2.0 * self.omega_a - self.omega_b - self.omega_c

    @classmethod
    def from_detuning(cls, delta_omega1: float, g: float) -> "ModelParams":
        """Synthetic frequencies (Δω₁/2, 0, 0) realizing a given detuning.

        Witness values depend on the frequencies only through Δω₁, so this
        choice is observationally equivalent to any physical triple and keeps
        the Hamiltonian's spectrum at the scale of Δω₁ and g.
        """
        return cls(omega_a=delta_omega1 / 2.0, omega_b=0.0, omega_c=0.0, g=g)


@dataclass(frozen=True)
class CoherentInput:
    """Complex amplitudes of the initial three-mode coherent product state.

    |alpha|², |beta|², |gamma|² are the initial mean photon numbers of pump,
    signal and idler.  The pump phase convention is alpha = |alpha|·e^{iφ}.
    """

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ConfigError(f"{name} must be finite, got {v!r}")

    @classmethod
    def from_pump_phase(cls, alpha_abs: float, phi: float,
                        beta: complex, gamma: complex) -> "CoherentInput":
        return cls(alpha=alpha_abs * cmath.exp(1j * phi),
                   beta=complex(beta), gamma=complex(gamma))

    @property
    def phi(self) -> float:
        """Pump phase arg(alpha) in [0, 2π)."""
        return cmath.phase(self.alpha) % (2.0 * math.pi)


@dataclass(frozen=True)
class PerturbativeCoefficients:
    """The fifteen operator coefficients at time t (arrays over t when t is
    an array).

    Exact identities: |f1| = |g1| = |h1| = 1, f4 = f5 = −f3/2,
    g4 = g5 = −2·g3, h4 = h5 = −2·h3, and g2/g1 = h2/h1.
    ``perturbative_valid`` is False once g·t exceeds the documented 0.1
    operating cutoff (the solution itself is not clipped).
    """

    f1: complex
    f2: complex
    f3: complex
    f4: complex
    f5: complex
    g1: complex
    g2: complex
    g3: complex
    g4: complex
    g5: complex
    h1: complex
    h2: complex
    h3: complex
    h4: complex
    h5: complex
    t: float
    perturbative_valid: bool


def _ramp(x, series=None):
    """(1 − e^{ix}) / x elementwise, series branch below the switchover.

    Equals −i at x = 0.  The closed form uses 1 − e^{ix} =
    2sin²(x/2) − i·sin(x), which has no subtractive cancellation.  Each
    branch sees only its own elements (the other slots hold 0 or 1), so the
    closed form never divides by zero.
    """
    if series is None:
        series = np.abs(x) < SERIES_SWITCHOVER
    xs = np.where(series, x, 0.0)
    xc = np.where(series, 1.0, x)
    s = np.sin(0.5 * xc)
    return np.where(series, -1j + xs / 2.0 + 1j * xs * xs / 6.0 - xs ** 3 / 24.0,
                    (2.0 * s * s - 1j * np.sin(xc)) / xc)


def _ramp2(x, series=None):
    """(1 − e^{ix} + ix) / x² elementwise, series branch below the switchover.

    Equals 1/2 at x = 0.  The imaginary part (x − sin x)/x² loses relative
    accuracy near the switchover but stays ~1e-12 below the dominant real
    part there, keeping the whole value accurate to ~1e-12.
    """
    if series is None:
        series = np.abs(x) < SERIES_SWITCHOVER
    xs = np.where(series, x, 0.0)
    xc = np.where(series, 1.0, x)
    s = np.sin(0.5 * xc)
    return np.where(series, 0.5 + 1j * xs / 6.0 - xs * xs / 24.0 - 1j * xs ** 3 / 120.0,
                    (2.0 * s * s + 1j * (xc - np.sin(xc))) / (xc * xc))


def coefficients(params: ModelParams, t, _force_series: bool | None = None
                 ) -> PerturbativeCoefficients:
    """Evaluate all fifteen coefficients at a time t ≥ 0 or an array of them.

    Every field is an array over ``t`` for array input and a scalar for a
    scalar ``t``.  The resonant case Δω₁ → 0 is handled by the series branch
    of the ramp helpers, not by an error.  Raises ConfigError when any phase
    ω·t or Δω₁·t is not finite.  ``_force_series`` overrides branch selection
    (used by the branch-continuity tests only).
    """
    t = np.asarray(t, dtype=float)[()]
    if np.any(t < 0):
        raise ConfigError(f"t must be nonnegative, got {float(np.min(t))!r}")
    g = params.g
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.multiply.outer((params.omega_a, params.omega_b, params.omega_c,
                                    params.delta_omega1), t)
    if not np.isfinite(phases).all():
        raise ConfigError(f"phases omega*t and delta_omega1*t must be finite, "
                          f"got t up to {float(np.max(t))!r}")
    f1, g1, h1 = np.exp(-1j * phases[:3])
    x = phases[3]

    # f2 = (2g/Δω₁) f1 (1 − e^{iΔω₁t})      = 2g·t·f1·ramp(Δω₁t)
    # f3 = (2g/Δω₁)(f2 + 2igt f1)           = 4g²t²·f1·ramp2(Δω₁t)
    # g2 = −(g/Δω₁) g1 (1 − e^{−iΔω₁t})     = g·t·g1·ramp(−Δω₁t)
    # g3 = −(g/Δω₁)(g2 + igt g1)            = g²t²·g1·ramp2(−Δω₁t)
    rp = _ramp(x, _force_series)
    rm = _ramp(-x, _force_series)
    r2m = _ramp2(-x, _force_series)
    f2 = 2.0 * g * t * f1 * rp
    f3 = 4.0 * g * g * t * t * f1 * _ramp2(x, _force_series)
    g2 = g * t * g1 * rm
    g3 = g * g * t * t * g1 * r2m
    h2 = g * t * h1 * rm
    h3 = g * g * t * t * h1 * r2m

    return PerturbativeCoefficients(
        f1=f1, f2=f2, f3=f3, f4=-f3 / 2.0, f5=-f3 / 2.0,
        g1=g1, g2=g2, g3=g3, g4=-2.0 * g3, g5=-2.0 * g3,
        h1=h1, h2=h2, h3=h3, h4=-2.0 * h3, h5=-2.0 * h3,
        t=t, perturbative_valid=(g * t <= VALIDITY_GT),
    )


def coefficient_derivatives(params: ModelParams, t) -> dict[str, complex]:
    """Analytic d/dt of every coefficient (used by the equation-of-motion check).

    No Δω₁ division appears, so there is no resonant branch here.
    """
    c = coefficients(params, t)
    g = params.g
    d = params.delta_omega1
    e_p = np.exp(1j * d * c.t)
    e_m = np.exp(-1j * d * c.t)
    df1 = -1j * params.omega_a * c.f1
    df2 = -1j * params.omega_a * c.f2 - 2j * g * c.f1 * e_p
    df3 = -1j * params.omega_a * c.f3 + 2j * g * c.f2
    dg1 = -1j * params.omega_b * c.g1
    dg2 = -1j * params.omega_b * c.g2 - 1j * g * c.g1 * e_m
    dg3 = -1j * params.omega_b * c.g3 + 1j * g * c.g2
    dh1 = -1j * params.omega_c * c.h1
    dh2 = -1j * params.omega_c * c.h2 - 1j * g * c.h1 * e_m
    dh3 = -1j * params.omega_c * c.h3 + 1j * g * c.h2
    return {
        "f1": df1, "f2": df2, "f3": df3, "f4": -df3 / 2.0, "f5": -df3 / 2.0,
        "g1": dg1, "g2": dg2, "g3": dg3, "g4": -2.0 * dg3, "g5": -2.0 * dg3,
        "h1": dh1, "h2": dh2, "h3": dh3, "h4": -2.0 * dh3, "h5": -2.0 * dh3,
    }
