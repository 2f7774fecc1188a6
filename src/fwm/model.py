"""Model parameters, coherent inputs, and the second-order coefficient set.

The interaction couples two pump quanta (mode a) to one signal (b) plus one
idler (c) quantum.  The Heisenberg operators through second order in the
coupling g are

    a(t) = f1 a + f2 a†bc + f3 ab†bc†c + f4 a†a²c†c + f5 a†a²bb†
    b(t) = g1 b + g2 a²c† + g3 a²a†²b + g4 a†abcc† + g5 aa†bcc†
    c(t) = h1 c + h2 a²b† + h3 a²a†²c + h4 a†acbb† + h5 aa†cbb†

with all fifteen coefficients closed functions of (Δω₁, g, t), where
Δω₁ = 2ω_a − ω_b − ω_c.  `HEISENBERG_TERMS` is the one statement of this
solution: each term's ladder word and its coefficient as a free phase times
a factor and a monomial in r = −i·g·t·φ₁(iΔω₁t) and s = (g·t)²·φ₂(iΔω₁t),
with the φ-functions of `_phi`.  The coefficients, their derivatives, the
residual checks and the closed-form witnesses all read it.  Only Δω₁·t and
g·t enter any observable; the ω's are treated as angular frequencies (s⁻¹).

`coefficients` takes a scalar time or an array of times; for an array every
coefficient is an array over t, computed in one numpy pass.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

# Below this |Δω₁·t| `_phi` sums SERIES_TERMS terms of its Taylor series (the
# next is < 3e-19); above it each step of its recurrence loses ~1e-16/|Δω₁·t|.
SERIES_SWITCHOVER = 1e-2
SERIES_TERMS = 7

# The fifteen terms of a(t), b(t), c(t) as (coefficient field, ladder word,
# factor, monomial): a word is a product read left to right, upper case the
# adjoint or conjugate.  A field is factor·x₁·monomial, with x₁ its mode's
# free phase and the monomial in the letters r and s of the module docstring.
HEISENBERG_TERMS = {
    "a": (("f1", "a", 1, ""), ("f2", "Abc", 2, "r"), ("f3", "aBbCc", 4, "s"),
          ("f4", "AaaCc", -2, "s"), ("f5", "AaabB", -2, "s")),
    "b": (("g1", "b", 1, ""), ("g2", "aaC", -1, "R"), ("g3", "aaAAb", 1, "S"),
          ("g4", "AabcC", -2, "S"), ("g5", "aAbcC", -2, "S")),
    "c": (("h1", "c", 1, ""), ("h2", "aaB", -1, "R"), ("h3", "aaAAc", 1, "S"),
          ("h4", "AacbB", -2, "S"), ("h5", "aAcbB", -2, "S")),
}


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
        for name in ("omega_a", "omega_b", "omega_c", "g", "delta_omega1"):
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
    an array), named as in the paper.  `HEISENBERG_TERMS` states every
    relation among them; |f1| = |g1| = |h1| = 1, and the power-of-two
    factors make f4 = f5 = −f3/2, g4 = g5 = −2·g3 and h4 = h5 = −2·h3 exact.
    ``r`` is the letter r (ṙ in a set of derivatives), None in one built by hand.
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
    r: complex | None = None

    @functools.cached_property
    def r_powers(self) -> np.ndarray:
        """Rows |r|², Re r, Im r, Re r², Im r² of the letter r of
        `HEISENBERG_TERMS`, once per coefficient set: divided by its first
        coefficient, each of a(t), b(t), c(t) depends on t only through r
        and s = |r|²/2 + iτ."""
        r = self.r
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = r * r
            return np.array([np.abs(r) ** 2, r.real, r.imag, r2.real, r2.imag])


def _phi(k: int, x):
    """φ_k(ix) = Σₙ (ix)ⁿ/(n+k)! elementwise for real x, a φ-function of
    exponential integrators (Hochbruck and Ostermann, Acta Numerica 19, 209
    (2010)): φ₁ = expm1(ix)/(ix) and φ_{j+1} = (φ_j − 1/j!)/(ix) above the
    switchover, the Taylor series below it.  Each branch sees only its own
    elements (the other slots hold 0 or 1), so neither divides by zero.
    """
    series = np.abs(x) < SERIES_SWITCHOVER
    ix = 1j * np.where(series, 1.0, x)
    closed = np.expm1(ix) / ix
    for j in range(1, k):
        closed = (closed - 1 / math.factorial(j)) / ix
    ixs = 1j * np.where(series, x, 0.0)
    taylor = 0.0
    for n in reversed(range(SERIES_TERMS)):
        taylor = taylor * ixs + 1 / math.factorial(n + k)
    return np.where(series, taylor, closed)


def _letters(params: ModelParams, t):
    """t as a float or an array, and the value at t of each letter of the
    product x₁·monomial in a `HEISENBERG_TERMS` row: the free phases
    a, b, c (f1, g1, h1), r, s, and R = r̄, S = s̄."""
    t = np.asarray(t, dtype=float)[()]
    if np.any(t < 0):
        raise ConfigError(f"t must be nonnegative, got {float(np.min(t))!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.multiply.outer((params.omega_a, params.omega_b, params.omega_c,
                                    params.delta_omega1), t)
        # (gt)² rather than g²t², which underflows for g < 1e-154 at any t
        gt = params.g * t
        r = -1j * gt * _phi(1, phases[3])
        s = gt * gt * _phi(2, phases[3])
    if not np.isfinite(phases).all():
        raise ConfigError(f"phases omega*t and delta_omega1*t must be finite, "
                          f"got t up to {float(np.max(t))!r}")
    return t, {**dict(zip("abc", np.exp(-1j * phases[:3]))),
               "r": r, "R": r.conjugate(), "s": s, "S": s.conjugate()}


def _fill(params: ModelParams, t, product) -> PerturbativeCoefficients:
    """The coefficient set with factor·product(word) in each
    `HEISENBERG_TERMS` row, the word being its mode (for x₁) and monomial
    in the letters of `_letters`, and product("r") in ``r``.  Raises
    ConfigError when a value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = PerturbativeCoefficients(t=t, r=product("r"), **{
            name: factor * product(mode + word)
            for mode, terms in HEISENBERG_TERMS.items() for name, _, factor, word in terms})
    if not all(np.isfinite(v).all() for k, v in vars(out).items() if k != "t"):
        raise ConfigError(f"coefficients must be finite, got an overflow at "
                          f"g*t up to {float(np.max(params.g * t))!r}")
    return out


def coefficients(params: ModelParams, t) -> PerturbativeCoefficients:
    """Evaluate all fifteen coefficients at a time t ≥ 0 or an array of them.

    Every field is an array over ``t`` for array input and a scalar for a
    scalar ``t``.  The resonant case Δω₁ → 0 is handled by the series branch
    of `_phi`, not by an error.  Raises ConfigError when any phase
    ω·t or Δω₁·t, or any coefficient, is not finite.
    """
    t, values = _letters(params, t)
    return _fill(params, t, lambda word: math.prod(values[v] for v in word))


def coefficient_derivatives(params: ModelParams, t) -> PerturbativeCoefficients:
    """Analytic d/dt of every coefficient, in the fields of the coefficient
    set (used by the equation-of-motion check): the product rule on each
    row, with ẋ₁ = −iω·x₁, ṙ = −ig·e^{iΔω₁t} and ṡ = ig·r.

    No Δω₁ division appears, so there is no resonant branch here.
    """
    t, values = _letters(params, t)
    r_dot = -1j * params.g * np.exp(1j * params.delta_omega1 * t)
    s_dot = 1j * params.g * values["r"]
    rates = {"r": r_dot, "R": r_dot.conjugate(), "s": s_dot, "S": s_dot.conjugate(),
             **{x: -1j * w * values[x] for x, w in
                zip("abc", (params.omega_a, params.omega_b, params.omega_c))}}
    return _fill(params, t, lambda word: sum(
        rates[v] * math.prod(values[u] for u in word[:k] + word[k + 1:])
        for k, v in enumerate(word)))
