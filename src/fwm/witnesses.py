"""Moment-based inseparability witnesses: one definition, two sources.

A strictly negative value certifies inseparability of the named mode set.
Criteria:

    HZ1      ⟨N_i N_j⟩ − |⟨i j†⟩|²            (and the (m,n) generalization)
    HZ2      ⟨N_i⟩⟨N_j⟩ − |⟨i j⟩|²            (and the (m,n) generalization)
    DUAN     (Δu)² + (Δv)² − 2 for the joint quadratures of the pair
    TRI_HZ1  ⟨N_a N_b N_c⟩ − |⟨i j k†⟩|²      per bipartite cut (ij | k)
    TRI_SYM  ⟨N_a⟩⟨N_b⟩⟨N_c⟩ − |⟨a b c⟩|²

A witness is the moments it reads (`_recipe`) and the formula combining
them (`_combine`).  The oracle reads the moments from propagated states;
`evaluate` compiles them once per witness (`_plan`) from the second-order
Heisenberg operators in the coherent input, an array over t in one pass.

The (m,n) closed forms meet three requirements.  They reduce exactly to
the m = n = 1 forms: (1, 1) is the same WitnessId, so the same plan.  They
stay finite for vacuum signal/idler input: a normal-ordered moment has no
negative amplitude power.  Their error against exact Fock-space propagation
scales as g³: each is the exact second-order truncation of its recipe
(certified by `oracle.compare`; tests/bruteforce.py re-derives every value
independently).  Any (m, n) compiles; `fockspace.MAX_MOMENT_ORDER` bounds
only the oracle's moment reads.
"""
from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fockspace import MomentSpec
from .model import HEISENBERG_TERMS, CoherentInput, ConfigError, PerturbativeCoefficients

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
        if len(parts) > 3:
            raise InvalidWitness(f"too many ':' fields in {text!r}")
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


def _spec(**orders) -> MomentSpec:
    """MomentSpec of ⟨Π i†ᵖiᵠ⟩ from {mode i: (p, q)}; absent modes get (0, 0)."""
    return MomentSpec(*(k for mode in "abc" for k in orders.get(mode, (0, 0))))


@functools.cache
def _recipe(wid: WitnessId) -> tuple[tuple[MomentSpec, ...], MomentSpec]:
    """(products, cross) of a witness.  HZ and trimodal values are
    Π⟨product⟩ − |⟨cross⟩|²; for DUAN the products are (N_i, N_j, ⟨i⟩, ⟨j⟩)
    and the cross moment is ⟨i j†⟩."""
    m, n = wid.m, wid.n
    if wid.criterion is Criterion.HZ1:
        i, j = wid.modes
        return (_spec(**{i: (m, m), j: (n, n)}),), _spec(**{i: (0, m), j: (n, 0)})
    if wid.criterion is Criterion.HZ2:
        i, j = wid.modes
        return (_spec(**{i: (m, m)}), _spec(**{j: (n, n)})), _spec(**{i: (0, m), j: (0, n)})
    if wid.criterion is Criterion.DUAN:
        i, j = wid.modes
        return ((_spec(**{i: (1, 1)}), _spec(**{j: (1, 1)}), _spec(**{i: (0, 1)}),
                 _spec(**{j: (0, 1)})), _spec(**{i: (0, 1), j: (1, 0)}))
    if wid.criterion is Criterion.TRI_HZ1:
        i, j, k = wid.modes
        return (_spec(a=(1, 1), b=(1, 1), c=(1, 1)),), _spec(**{i: (0, 1), j: (0, 1), k: (1, 0)})
    return ((_spec(a=(1, 1)), _spec(b=(1, 1)), _spec(c=(1, 1))),
            _spec(a=(0, 1), b=(0, 1), c=(0, 1)))


def _combine(wid: WitnessId, mom: dict, abs2):
    """Witness value from ``mom``, which maps each MomentSpec of the recipe
    to its value, with ``abs2`` giving |z|².  The Duan quadratures take
    co-rotated moments.  Only +, −, ·, ``.real`` and ``.conjugate()`` are
    used, so arrays and order series both serve."""
    products, cross = _recipe(wid)
    if wid.criterion is not Criterion.DUAN:
        return math.prod(mom[s].real for s in products) - abs2(mom[cross])
    ni, nj, mi, mj = (mom[s] for s in products)
    return (2 * (ni.real - abs2(mi)) + 2 * (nj.real - abs2(mj))
            + 4 * (mom[cross] - mi * mj.conjugate()).real)


class _Series(dict):
    """{(m, e): coefficient}, truncated above second order in g: m holds the
    exponents of r, r̄ (first order) and s, s̄ (second order), e those of
    a monomial a†ᵖaᵠb†ʳbˢc†ᵘcᵛ.  For an operator e is a normal-ordered
    ladder monomial; for a coherent moment, the amplitude monomial
    ᾱᵖαᵠβ̄ʳβˢγ̄ᵘγᵛ it takes, and products commute."""

    def __add__(self, other):
        out = _Series(self)
        for k, v in other.items():
            out[k] = out.get(k, 0.0) + v
        return _Series({k: v for k, v in out.items() if v})

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, _Series):
            return _product(self, other, _commuting)
        return _Series({k: v * other for k, v in self.items()})

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugate of a moment, adjoint of an operator."""
        return _Series({((rb, r, sb, s), (e[1], e[0], e[3], e[2], e[5], e[4])): v
                        for ((r, rb, s, sb), e), v in self.items()})

    @property
    def real(self):
        return (self + self.conjugate()) * 0.5


def _commuting(e1, e2):
    return ((1, tuple(map(operator.add, e1, e2))),)


@functools.cache
def _normal_product(e1, e2):
    """(weight, e) terms of the normal-ordered product of two ladder
    monomials: per mode (x†ᵖxᵠ)(x†ᵖ'xᵠ') = Σₖ k!·C(q,k)·C(p',k) x†ᵖ⁺ᵖ'⁻ᵏxᵠ⁺ᵠ'⁻ᵏ."""
    per_mode = [[(math.factorial(k) * math.comb(q, k) * math.comb(p2, k), p + p2 - k, q + q2 - k)
                 for k in range(min(q, p2) + 1)]
                for p, q, p2, q2 in zip(e1[::2], e1[1::2], e2[::2], e2[1::2])]
    return tuple((wa * wb * wc, (*ea, *eb, *ec)) for (wa, *ea), (wb, *eb), (wc, *ec)
                 in itertools.product(*per_mode))


def _product(x: _Series, y: _Series, contract) -> _Series:
    out: dict = {}
    for (m1, e1), c1 in x.items():
        for (m2, e2), c2 in y.items():
            m = tuple(map(operator.add, m1, m2))
            if m[0] + m[1] + 2 * (m[2] + m[3]) > 2:
                continue
            for w, e in contract(e1, e2):
                out[m, e] = out.get((m, e), 0.0) + c1 * c2 * w
    return _Series({k: v for k, v in out.items() if v})


@functools.cache
def _power(letter: str, k: int) -> _Series:
    """x(t)ᵏ/x₁ᵏ for a ladder letter (upper case: the adjoint), from the
    Heisenberg table with every coefficient divided by the first one."""
    if k == 0:
        return _Series({((0,) * 4, (0,) * 6): 1.0})
    if letter.isupper():
        return _power(letter.lower(), k).conjugate()
    if k > 1:
        # first the power with the lowest set bit of k cleared, so the cache
        # fills upward in binary steps: the recursion stays O(log² k) deep
        # and each new power reads at most three cached ones
        _power(letter, k & (k - 1))
        return _product(_power(letter, k - 1), _power(letter, 1), _normal_product)
    out = _Series()
    for _, word, factor, mono in HEISENBERG_TERMS[letter]:
        term = _Series({(tuple(map(mono.count, "rRsS")), (0,) * 6): float(factor)})
        for x in word:
            e = [0] * 6
            e[2 * "abc".index(x.lower()) + x.islower()] = 1     # x† at 2i, x at 2i + 1
            term = _product(term, _Series({((0,) * 4, tuple(e)): 1.0}), _normal_product)
        out += term
    return out


def _moment(spec: MomentSpec) -> _Series:
    """⟨a†ᵖaᵠb†ʳbˢc†ᵘcᵛ⟩ of the phase-free operators x(t)/x₁ in a coherent
    state, as an order series."""
    out = _power("a", 0)     # the identity
    for letter, k in zip("AaBbCc", (spec.p, spec.q, spec.r, spec.s, spec.u, spec.v)):
        out = _product(out, _power(letter, k), _normal_product)
    return out


# rows of `PerturbativeCoefficients.r_powers` for Re and Im of r^(p-q)·|r|^(2q)
_ROWS = {(1, 1): (0,), (1, 0): (1, 2), (2, 0): (3, 4)}


@functools.cache
def _plan(wid: WitnessId) -> tuple:
    """The witness as ((rows, weight, amplitude terms), ...): its value is
    Σ weight·Re(A·rᵖ⁻ᵠ)·|r|²ᵠ over the `_ROWS` of (p, q), with
    A = Σ coefficient·ᾱᵖαᵠβ̄ʳβˢγ̄ᵘγᵛ.

    Every term of x(t) carries x₁, a pure phase that every witness cancels,
    so the moments of x(t)/x₁ give the value.  Their series in r and
    s = |r|²/2 + iτ (τ real) is exact in dyadic arithmetic, where order 0
    and τ must cancel exactly.
    """
    products, cross = _recipe(wid)
    value = _combine(wid, {s: _moment(s) for s in {*products, cross}},
                     lambda z: z * z.conjugate())
    terms: dict = {}
    for ((r, rb, s, sb), e), c in value.items():
        if s or sb:
            assert value.get(((r, rb, sb, s), e)) == c, f"{wid.label()}: τ does not cancel"
        poly = terms.setdefault((r + s + sb, rb + s + sb), {})
        poly[e] = poly.get(e, 0.0) + (c / 2 if s or sb else c)
    assert (0, 0) not in terms, f"{wid.label()}: order 0 does not cancel"
    plan = []
    for (p, q), poly in sorted(terms.items()):
        if p < q:       # the conjugate of term (q, p), which weight 2 counts
            continue
        amps = tuple((c, tuple(min(e[i], e[i + 1]) for i in (0, 2, 4)),
                      tuple(e[i + 1] - e[i] for i in (0, 2, 4)))
                     for e, c in poly.items() if c)
        plan.append((_ROWS[p, q], 1 + (p > q), amps))
    return tuple(plan)


def _amplitude(terms, inp: CoherentInput) -> complex:
    """Σ coefficient·Πᵢ |xᵢ|^{2kᵢ}·xᵢ^{dᵢ} (x̄ᵢ^{−dᵢ} for dᵢ < 0)."""
    amps = (inp.alpha, inp.beta, inp.gamma)
    total = 0j
    for c, ks, ds in terms:
        for x, k, d in zip(amps, ks, ds):
            c = c * abs(x) ** (2 * k) * (x ** d if d >= 0 else x.conjugate() ** -d)
        total += c
    return total


def _refuse_hidden_sign(wid: WitnessId, coeffs: PerturbativeCoefficients,
                        inp: CoherentInput) -> None:
    """Raise ConfigError if a value whose amplitude terms all rounded to 0
    is negative, which would hide its entangled flag.

    Every term is rebuilt from the logarithms of the amplitudes and scaled
    so that the largest is 1, so none underflows.  A value counts as
    negative beyond 1e-6 of the summed moduli of its scaled terms, far
    above the roundoff of the logarithms."""
    amps = (inp.alpha, inp.beta, inp.gamma)
    scaled = []
    for rows, w, terms in _plan(wid):
        for c, ks, ds in terms:
            if any(not x and (k or d) for x, k, d in zip(amps, ks, ds)):
                continue       # an exact 0
            log = math.log(abs(c)) + sum((2 * k + abs(d)) * math.log(abs(x))
                                         for x, k, d in zip(amps, ks, ds) if k or d)
            phase = sum(d * cmath.phase(x) for x, d in zip(amps, ds) if d)
            scaled.append((rows, math.copysign(w, c) * cmath.exp(1j * phase), log))
    if not scaled:
        return
    top = max(log for _, _, log in scaled)
    weights, moduli = np.zeros(5), np.zeros(5)
    for rows, unit, log in scaled:
        a = unit * math.exp(log - top)
        weights[rows[0]] += a.real
        moduli[rows[0]] += abs(a)
        if len(rows) > 1:
            weights[rows[1]] -= a.imag
            moduli[rows[1]] += abs(a)
    with np.errstate(over="ignore", invalid="ignore"):    # `evaluate` checks those
        negative = weights @ coeffs.r_powers < -1e-6 * (moduli @ np.abs(coeffs.r_powers))
    if np.any(negative):
        mags = ", ".join(f"{abs(z):.6g}" for z in amps)
        raise ConfigError(f"{wid.label()} values underflow to 0 where they are negative, "
                          f"from the input amplitudes |alpha|, |beta|, |gamma| = {mags}")


def evaluate(wid: WitnessId, coeffs: PerturbativeCoefficients,
             inp: CoherentInput) -> float | np.ndarray:
    """Closed-form value of a witness: a float for a scalar t, an array over
    t otherwise.  Raises ConfigError when any value overflows, or when it
    underflows to 0 from a negative value (`_refuse_hidden_sign`)."""
    weights = [0.0] * 5
    try:
        for rows, w, terms in _plan(wid):
            a = w * _amplitude(terms, inp)
            weights[rows[0]] += a.real
            if len(rows) > 1:
                weights[rows[1]] -= a.imag
    except OverflowError:      # a Python float power of an amplitude overflowed
        weights = [math.inf]
    if not all(map(math.isfinite, weights)):
        mags = ", ".join(f"{abs(z):.6g}" for z in (inp.alpha, inp.beta, inp.gamma))
        raise ConfigError(f"{wid.label()} values must be finite, got an overflow from the "
                          f"input amplitudes |alpha|, |beta|, |gamma| = {mags}")
    if not any(weights):       # every term cancelled or underflowed
        _refuse_hidden_sign(wid, coeffs, inp)
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.dot(weights, coeffs.r_powers)
    if not np.isfinite(value).all():
        raise ConfigError(f"{wid.label()} values must be finite, got an overflow "
                          f"at t up to {float(np.max(coeffs.t))!r}")
    return float(value) if value.ndim == 0 else value
