"""Moment-based inseparability witnesses evaluated in closed form.

Each function maps (coefficients, coherent input) to a real witness value;
a strictly negative value certifies inseparability of the named mode set.
The arithmetic is elementwise, so coefficients over an array of times give
an array of values over t in one pass.
Criteria:

    HZ1      ⟨N_i N_j⟩ − |⟨i j†⟩|²            (and the (m,n) generalization)
    HZ2      ⟨N_i⟩⟨N_j⟩ − |⟨i j⟩|²            (and the (m,n) generalization)
    DUAN     (Δu)² + (Δv)² − 2 for the joint quadratures of the pair
    TRI_HZ1  ⟨N_a N_b N_c⟩ − |⟨i j k†⟩|²      per bipartite cut (ij | k)
    TRI_SYM  ⟨N_a⟩⟨N_b⟩⟨N_c⟩ − |⟨a b c⟩|²

The (m,n) closed forms are pinned by three requirements, enforced in the
test suite: they reduce exactly to the m = n = 1 forms, they stay finite for
vacuum signal/idler input (no negative amplitude powers survive), and their
error against exact Fock-space propagation scales as g³ across a coupling
ladder.  Every term below carries the unique coefficient satisfying all
three; see tests/bruteforce.py for the independent re-derivation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import CoherentInput, ConfigError, PerturbativeCoefficients

_PAIRS = {("a", "b"), ("b", "c"), ("a", "c")}
_CUTS = {("a", "b", "c"), ("b", "c", "a"), ("a", "c", "b")}


class Criterion(enum.Enum):
    HZ1 = "HZ1"
    HZ2 = "HZ2"
    DUAN = "DUAN"
    TRI_HZ1 = "TRI_HZ1"
    TRI_SYM = "TRI_SYM"


class InvalidWitness(ValueError):
    """Witness id outside the implemented family."""


@dataclass(frozen=True)
class WitnessId:
    """A named witness: criterion, ordered mode set, operator orders (m, n).

    For TRI_HZ1 the mode triple (i, j, k) denotes the bipartite cut ij | k
    (mode k carries the dagger in the cross moment).  DUAN, TRI_HZ1 and
    TRI_SYM exist only at m = n = 1.
    """

    criterion: Criterion
    modes: tuple[str, ...]
    m: int = 1
    n: int = 1

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidWitness(f"orders must be >= 1, got m={self.m} n={self.n}")
        if self.criterion in (Criterion.HZ1, Criterion.HZ2, Criterion.DUAN):
            if tuple(self.modes) not in _PAIRS:
                raise InvalidWitness(f"invalid mode pair {self.modes!r}")
        elif self.criterion is Criterion.TRI_HZ1:
            if tuple(self.modes) not in _CUTS:
                raise InvalidWitness(f"invalid bipartite cut {self.modes!r}")
        else:
            if tuple(self.modes) != ("a", "b", "c"):
                raise InvalidWitness(f"TRI_SYM takes modes ('a','b','c'), got {self.modes!r}")
        if self.criterion in (Criterion.DUAN, Criterion.TRI_HZ1, Criterion.TRI_SYM):
            if (self.m, self.n) != (1, 1):
                raise InvalidWitness(f"{self.criterion.value} is defined only at m=n=1")

    @property
    def mode_string(self) -> str:
        return "".join(self.modes)

    def label(self) -> str:
        s = f"{self.criterion.value}:{self.mode_string}"
        if (self.m, self.n) != (1, 1):
            s += f":{self.m},{self.n}"
        return s

    @classmethod
    def parse(cls, text: str) -> "WitnessId":
        """Parse compact labels like HZ1:ab, HZ1:ab:2,1, TRI_HZ1:bca, TRI_SYM."""
        parts = text.strip().split(":")
        try:
            crit = Criterion(parts[0].upper())
        except ValueError:
            raise InvalidWitness(f"unknown criterion {parts[0]!r}") from None
        modes = tuple(parts[1]) if len(parts) > 1 and parts[1] else ("a", "b", "c")
        m = n = 1
        if len(parts) > 2:
            try:
                m_s, n_s = parts[2].split(",")
                m, n = int(m_s), int(n_s)
            except ValueError:
                raise InvalidWitness(f"bad order spec {parts[2]!r}") from None
        return cls(criterion=crit, modes=modes, m=m, n=n)


def _pair_key(pair) -> tuple[str, str]:
    key = tuple(pair)
    if key not in _PAIRS:
        raise InvalidWitness(f"invalid mode pair {pair!r}")
    return key


def hz1_pair(pair, coeffs: PerturbativeCoefficients,
             inp: CoherentInput) -> float | np.ndarray:
    """⟨N_i N_j⟩ − |⟨i j†⟩|² for a mode pair."""
    key = _pair_key(pair)
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    f2s = abs(coeffs.f2) ** 2
    if key == ("a", "b"):
        val = f2s * (aa ** 3 / 4 + bb ** 2 * cc - aa ** 2 * bb / 2 - aa * bb * cc)
    elif key == ("a", "c"):
        val = f2s * (aa ** 3 / 4 + bb * cc ** 2 - aa ** 2 * cc / 2 - aa * bb * cc)
    else:
        g2s = abs(coeffs.g2) ** 2
        bracket = aa ** 2 * (1 + 3 * bb + 3 * cc) - 2 * bb * cc * (1 + 2 * aa)
        cross = 2 * (coeffs.h1 * coeffs.h2.conjugate()
                     * inp.alpha.conjugate() ** 2 * inp.beta * inp.gamma).real
        val = g2s * bracket + cross
    return val


def hz2_pair(pair, coeffs: PerturbativeCoefficients,
             inp: CoherentInput) -> float | np.ndarray:
    """⟨N_i⟩⟨N_j⟩ − |⟨i j⟩|² for a mode pair."""
    key = _pair_key(pair)
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    f2s = abs(coeffs.f2) ** 2
    if key == ("a", "b"):
        val = f2s * (aa ** 3 / 4 + bb ** 2 * cc + aa ** 2 * bb / 2 + aa * bb * cc)
    elif key == ("a", "c"):
        val = f2s * (aa ** 3 / 4 + bb * cc ** 2 + aa ** 2 * cc / 2 + aa * bb * cc)
    else:
        g2s = abs(coeffs.g2) ** 2
        bracket = 2 * bb * cc * (1 + 2 * aa) - aa ** 2 * (1 + bb + cc)
        cross = 2 * (coeffs.h1 * coeffs.h2.conjugate()
                     * inp.alpha.conjugate() ** 2 * inp.beta * inp.gamma).real
        val = g2s * bracket - cross
    return val


def duan_pair(pair, coeffs: PerturbativeCoefficients,
              inp: CoherentInput) -> float | np.ndarray:
    """Joint-quadrature variance sum minus 2; manifestly ≥ 0 for this model."""
    key = _pair_key(pair)
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    f2s = abs(coeffs.f2) ** 2
    if key == ("b", "c"):
        val = f2s * aa ** 2
    else:
        val = f2s * (aa ** 2 / 2 + 2 * bb * cc)
    return val


def _hz1_pump_pair(aa, bb, oth, m, n):
    """⟨a†ᵐaᵐx†ⁿxⁿ⟩ − |⟨aᵐx†ⁿ⟩|² polynomial (x = b or c, oth = third mode),
    divided by |f2|².  Five terms; the candidate |α|^{2m−2} and |α|^{2m−4}
    occupation terms cancel identically at every order."""
    return (m * m * aa ** (m - 1) * bb ** (n + 1) * oth
            - m * n * aa ** m * bb ** n * oth
            - m * n / 2 * aa ** (m + 1) * bb ** n
            + n * n / 4 * aa ** (m + 2) * bb ** (n - 1)
            - m * n * (m - 1) / 4 * aa ** m * bb ** n)


def _bc_cross_terms(coeffs, inp, m, n):
    """The four phase-sensitive monomials shared by the (b,c) witness family.

    Returns (base, t_beta, t_gamma, t_double) where each entry is already a
    full complex monomial (coefficient × amplitudes); terms whose
    combinatorial factor vanishes are skipped so no negative amplitude power
    is ever formed (β = 0 or γ = 0 are legitimate inputs).
    """
    al, be, ga = inp.alpha, inp.beta, inp.gamma
    kbar = coeffs.h1 * coeffs.h2.conjugate()       # = conj(g2/g1) = conj(h2/h1)
    base = m * n * kbar * al.conjugate() ** 2 \
        * be ** m * be.conjugate() ** (m - 1) * ga ** n * ga.conjugate() ** (n - 1)
    t_beta = 0j
    t_gamma = 0j
    t_double = 0j
    if m > 1 or n > 1:
        k2 = (coeffs.h2 / coeffs.h1) ** 2    # h1 is a pure phase, never zero
        a4 = al ** 4
        if n > 1:
            t_beta = m * n * (n - 1) * k2 * a4 \
                * be ** (m - 1) * be.conjugate() ** (m + 1) \
                * ga ** (n - 2) * ga.conjugate() ** n
        if m > 1:
            t_gamma = m * n * (m - 1) * k2 * a4 \
                * be ** (m - 2) * be.conjugate() ** m \
                * ga ** (n - 1) * ga.conjugate() ** (n + 1)
        if m > 1 and n > 1:
            t_double = m * n * (m - 1) * (n - 1) / 2 * k2 * a4 \
                * be ** (m - 2) * be.conjugate() ** m \
                * ga ** (n - 2) * ga.conjugate() ** n
    return base, t_beta, t_gamma, t_double


def hz1_higher(pair, m: int, n: int, coeffs: PerturbativeCoefficients,
               inp: CoherentInput) -> float | np.ndarray:
    """⟨i†ᵐiᵐj†ⁿjⁿ⟩ − |⟨iᵐj†ⁿ⟩|²; reduces bit-for-bit to hz1_pair at (1,1)."""
    key = WitnessId(Criterion.HZ1, tuple(pair), m, n).modes   # validates orders
    if (m, n) == (1, 1):
        return hz1_pair(key, coeffs, inp)
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    if key == ("a", "b"):
        val = abs(coeffs.f2) ** 2 * _hz1_pump_pair(aa, bb, cc, m, n)
    elif key == ("a", "c"):
        val = abs(coeffs.f2) ** 2 * _hz1_pump_pair(aa, cc, bb, m, n)
    else:
        g2s = abs(coeffs.g2) ** 2
        bracket = ((2 * m * n * n + n * n) * aa ** 2 * bb ** m * cc ** (n - 1)
                   + m * m * n * n * aa ** 2 * bb ** (m - 1) * cc ** (n - 1)
                   + (2 * m * m * n + m * m) * aa ** 2 * bb ** (m - 1) * cc ** n
                   - 2 * m * n * (1 + 2 * aa) * bb ** m * cc ** n)
        base, t_beta, t_gamma, t_double = _bc_cross_terms(coeffs, inp, m, n)
        val = g2s * bracket + 2 * (base + t_beta + t_gamma + t_double).real
    return val


def hz2_higher(pair, m: int, n: int, coeffs: PerturbativeCoefficients,
               inp: CoherentInput) -> float | np.ndarray:
    """⟨i†ᵐiᵐ⟩⟨j†ⁿjⁿ⟩ − |⟨iᵐjⁿ⟩|²; reduces bit-for-bit to hz2_pair at (1,1)."""
    key = WitnessId(Criterion.HZ2, tuple(pair), m, n).modes   # validates orders
    if (m, n) == (1, 1):
        return hz2_pair(key, coeffs, inp)
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    f2s = abs(coeffs.f2) ** 2
    if key in (("a", "b"), ("a", "c")):
        xx, oth = (bb, cc) if key == ("a", "b") else (cc, bb)
        val = f2s * (m * m * aa ** (m - 1) * xx ** (n + 1) * oth
                     + m * n * (m - 1) / 4 * aa ** m * xx ** n
                     + m * n / 2 * aa ** (m + 1) * xx ** n
                     + n * n / 4 * aa ** (m + 2) * xx ** (n - 1)
                     + m * n * aa ** m * xx ** n * oth)
    else:
        g2s = abs(coeffs.g2) ** 2
        bracket = ((m * m - 2 * m * m * n) * aa ** 2 * bb ** (m - 1) * cc ** n
                   - m * m * n * n * aa ** 2 * bb ** (m - 1) * cc ** (n - 1)
                   + (1 - 2 * m) * n * n * aa ** 2 * bb ** m * cc ** (n - 1)
                   + 2 * m * n * (1 + 2 * aa) * bb ** m * cc ** n)
        base, t_beta, t_gamma, t_double = _bc_cross_terms(coeffs, inp, m, n)
        val = g2s * bracket - 2 * (base + t_beta + t_gamma + t_double).real
    return val


def trimodal_hz(cut, coeffs: PerturbativeCoefficients,
                inp: CoherentInput) -> float | np.ndarray:
    """⟨N_a N_b N_c⟩ − |⟨i j k†⟩|² for the bipartite cut (i, j | k)."""
    key = tuple(cut)
    if key not in _CUTS:
        raise InvalidWitness(f"invalid bipartite cut {cut!r}")
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    f2s = abs(coeffs.f2) ** 2
    if key == ("b", "c", "a"):
        poly = (aa ** 3 / 4 * (bb + cc)
                - (1 + aa + bb + cc) * aa * bb * cc + bb ** 2 * cc ** 2)
        val = f2s * poly
    else:
        mid = bb if key == ("a", "b", "c") else cc
        poly = (aa ** 3 / 4 * (1 + 3 * bb + 3 * cc)
                - aa * bb * cc / 2 * (5 * aa + 2 * mid + 3) + bb ** 2 * cc ** 2)
        cross = 2 * (coeffs.h1 * coeffs.h2.conjugate() * aa
                     * inp.alpha.conjugate() ** 2 * inp.beta * inp.gamma
                     + coeffs.f1.conjugate() * coeffs.f2
                     * coeffs.g1 * coeffs.g2.conjugate()
                     * inp.alpha.conjugate() ** 4 * inp.beta ** 2 * inp.gamma ** 2).real
        val = f2s * poly + cross
    return val


def trimodal_symmetric(coeffs: PerturbativeCoefficients,
                       inp: CoherentInput) -> float | np.ndarray:
    """Symmetric three-mode criterion ⟨N_a⟩⟨N_b⟩⟨N_c⟩ − |⟨a b c⟩|²."""
    aa, bb, cc = abs(inp.alpha) ** 2, abs(inp.beta) ** 2, abs(inp.gamma) ** 2
    f2s = abs(coeffs.f2) ** 2
    poly = (-aa ** 3 / 4 * (1 + bb + cc)
            + aa * bb * cc * (3 * aa + bb + cc + 1.5) + bb ** 2 * cc ** 2)
    cross = 2 * (coeffs.h1 * coeffs.h2.conjugate() * aa
                 * inp.alpha.conjugate() ** 2 * inp.beta * inp.gamma
                 + coeffs.f1 * coeffs.f2.conjugate()
                 * coeffs.h1.conjugate() * coeffs.h2
                 * inp.alpha ** 4 * inp.beta.conjugate() ** 2
                 * inp.gamma.conjugate() ** 2).real
    return f2s * poly - cross


def evaluate(wid: WitnessId, coeffs: PerturbativeCoefficients,
             inp: CoherentInput) -> float | np.ndarray:
    """Dispatch a WitnessId to its evaluator: a float for a scalar t, an
    array over t otherwise; raises ConfigError when any value overflows."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if wid.criterion is Criterion.HZ1:
                out = hz1_higher(wid.modes, wid.m, wid.n, coeffs, inp)
            elif wid.criterion is Criterion.HZ2:
                out = hz2_higher(wid.modes, wid.m, wid.n, coeffs, inp)
            elif wid.criterion is Criterion.DUAN:
                out = duan_pair(wid.modes, coeffs, inp)
            elif wid.criterion is Criterion.TRI_HZ1:
                out = trimodal_hz(wid.modes, coeffs, inp)
            else:
                out = trimodal_symmetric(coeffs, inp)
    except OverflowError:      # a Python float power of an amplitude overflowed
        amps = ", ".join(f"{abs(z):.6g}" for z in (inp.alpha, inp.beta, inp.gamma))
        raise ConfigError(f"{wid.label()} values must be finite, got an overflow from the "
                          f"input amplitudes |alpha|, |beta|, |gamma| = {amps}") from None
    value = np.asarray(out, dtype=float)
    if not np.isfinite(value).all():
        raise ConfigError(f"{wid.label()} values must be finite, got an overflow "
                          f"at t up to {float(np.max(coeffs.t))!r}")
    return float(value) if value.ndim == 0 else value
