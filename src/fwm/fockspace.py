"""Truncated three-mode occupation-number space: basis, states, moments,
ladder operators.

The flat index runs row-major over (n_a, n_b, n_c); amplitudes reshape to a
(N_a+1, N_b+1, N_c+1) tensor, and a stack of states with (T, dim)
amplitudes to a (T, N_a+1, N_b+1, N_c+1) one.  A state may also hold
only the amplitudes at a listed set of flat indices (`FockStateVector.index`,
the oracle's propagated sectors) and be 0 elsewhere.  A moment
⟨a†ᵖaᵠb†ʳbˢc†ᵘcᵛ⟩ = ⟨(aᵖbʳcᵘ)ψ | (aᵠbˢcᵛ)ψ⟩ applies only annihilation
powers, so on the flat index it is Σₘ conj(ψ[m])·W[m]·ψ[m+D]: D is the
moment's occupation offset, and W holds its ladder weights inside its bra
box and zero elsewhere.  This is exact on the truncated space (no creation
operator ever pushes population past a cutoff).  `moments` is the one
reader of expectation values: it reads any set of moments of a stack of
states with one real matrix product per distinct offset.  The norm ⟨1⟩
and the occupations ⟨N_i⟩ behind the conserved charges are moments too.

Every monomial in a, b, c and their adjoints is a weighted shift on the
truncated grid, (Xψ)[n] = w[n]·ψ[n+d], so operators are numpy weight
tensors keyed by their occupation shift d (`ShiftOperator`); products,
adjoints and sums stay in that form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import CoherentInput, ConfigError

MAX_MOMENT_ORDER = 12
CUTOFF_TAIL = 1e-12              # coherent tail mass `cutoffs_for` leaves out per mode
CUTOFF_HEADROOM = (4, 2, 2)      # occupations `cutoffs_for` adds above that tail


class CutoffError(ConfigError):
    """Per-mode cutoff too small for the requested state."""


@dataclass(frozen=True)
class FockBasis:
    """Per-mode occupation cutoffs (inclusive).

    The flat index of (n_a, n_b, n_c) is ``np.ravel_multi_index(occ, shape)``
    (row-major); `occupations` lists the occupation of every flat index."""

    cutoffs: tuple[int, int, int]

    def __post_init__(self):
        if len(self.cutoffs) != 3 or any(int(c) != c or c < 0 for c in self.cutoffs):
            raise ConfigError(f"cutoffs must be three nonnegative integers, "
                              f"got {self.cutoffs!r}")

    @property
    def shape(self) -> tuple[int, int, int]:
        na, nb, nc = self.cutoffs
        return (na + 1, nb + 1, nc + 1)

    @property
    def dimension(self) -> int:
        sa, sb, sc = self.shape
        return sa * sb * sc

    def occupations(self) -> np.ndarray:
        """(dimension, 3) array of occupations in flat-index order."""
        return np.indices(self.shape).reshape(3, -1).T


@dataclass
class FockStateVector:
    """Complex (n,) amplitudes over a FockBasis, or a (T, n) stack of
    states.

    ``index`` lists the n flat box indices the amplitudes occupy, in
    ascending order, and the state is 0 on every other index; None means the
    whole box, n = dimension."""

    amplitudes: np.ndarray
    basis: FockBasis
    index: np.ndarray | None = None

    def box(self) -> np.ndarray:
        """The amplitudes over the whole box, (…, dimension): the amplitudes
        themselves when ``index`` is None, otherwise a zero-filled copy,
        the transpose of a C-ordered (dimension, …) array."""
        if self.index is None:
            return self.amplitudes
        lead = self.amplitudes.shape[:-1]
        out = np.zeros((self.basis.dimension, math.prod(lead)), dtype=self.amplitudes.dtype)
        out[self.index] = self.amplitudes.reshape(-1, self.index.size).T
        return out.T.reshape(lead + (self.basis.dimension,))

    def tensor(self) -> np.ndarray:
        return self.box().reshape(self.amplitudes.shape[:-1] + self.basis.shape)


def _log_magnitudes(z: complex, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The integers n in [lo, hi) and log|⟨n|z⟩| = −|z|²/2 + n·log|z| − log(n!)/2
    for z ≠ 0; e^{−|z|²/2} is 0 long before |z| = 1e100, and the cap keeps
    |z|² finite."""
    n = np.arange(lo, hi)
    # log n! per n: a running sum of log n would carry its roundoff upward
    log_fact = np.array([math.lgamma(k + 1) for k in range(lo, hi)])
    return n, -min(abs(z), 1e100) ** 2 / 2 + n * math.log(abs(z)) - log_fact / 2


def _tails(z: complex, first: int, last: int) -> np.ndarray:
    """Coherent tail masses Σ_{m>n} |⟨m|z⟩|² for n = first..last, summed
    from their terms, smallest first, so each carries relative rather than
    absolute roundoff.  A Chernoff bound puts every term with m outside
    |z|² ± (40|z| + 500) below e^{−745}, which is 0 in double precision."""
    if z == 0:
        return np.zeros(last - first + 1)
    mu = min(abs(z), 1e100) ** 2
    spread = 40 * math.sqrt(mu) + 500
    if last + 1 < mu - spread:      # every n lies below the bulk: nothing is kept
        return np.ones(last - first + 1)
    lo = max(first + 1, math.floor(mu - spread))
    hi = max(lo, math.ceil(mu + spread))
    _, log_mag = _log_magnitudes(z, lo, hi + 1)
    above = np.append(np.cumsum(np.exp(2 * log_mag)[::-1])[::-1], 0.0)
    return above[np.clip(np.arange(first + 1, last + 2) - lo, 0, hi + 1 - lo)]


def coherent_amplitudes(cutoff: int, z: complex) -> tuple[np.ndarray, float]:
    """Truncated coherent amplitudes and the discarded tail mass (`_tails`)."""
    if z == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return amps, 0.0
    # amplitudes e^{-|z|²/2} zⁿ/√(n!), evaluated in log space for stability
    n, log_mag = _log_magnitudes(z, 0, cutoff + 1)
    amps = np.exp(log_mag) * np.exp(1j * n * np.angle(z))
    return amps, float(_tails(z, cutoff, cutoff)[0])


@functools.lru_cache
def cutoffs_for(inp: CoherentInput) -> tuple[int, int, int]:
    """Smallest cutoffs keeping each mode's coherent tail below CUTOFF_TAIL,
    plus CUTOFF_HEADROOM for the interaction (two pump quanta move per event).
    Every candidate from max(2, ⌈|z|²⌉) to 10 000 is measured in one pass.
    Cached per input."""
    out = []
    for z, extra in zip((inp.alpha, inp.beta, inp.gamma), CUTOFF_HEADROOM):
        first = max(2, math.ceil(min(abs(z), 1e100) ** 2))   # capped as in `_tails`
        below = np.flatnonzero(_tails(z, first, 10_000) < CUTOFF_TAIL) if first <= 10_000 else []
        if not len(below):
            raise CutoffError(f"no cutoff below 10000 reaches tail {CUTOFF_TAIL}")
        out.append(first + int(below[0]) + extra)
    return tuple(out)


def coherent_state(basis: FockBasis, inp: CoherentInput,
                   tail_tol: float = 1e-9) -> FockStateVector:
    """Truncated, renormalized |α⟩⊗|β⟩⊗|γ⟩ on the basis."""
    na, nb, nc = basis.cutoffs
    va, ta = coherent_amplitudes(na, inp.alpha)
    vb, tb = coherent_amplitudes(nb, inp.beta)
    vc, tc = coherent_amplitudes(nc, inp.gamma)
    if max(ta, tb, tc) > tail_tol:
        raise CutoffError(
            f"coherent tail {max(ta, tb, tc):.3e} above {tail_tol:.1e}; "
            f"raise cutoffs {basis.cutoffs}")
    psi = np.einsum("i,j,k->ijk", va, vb, vc).ravel()
    psi /= np.linalg.norm(psi)
    return FockStateVector(amplitudes=psi, basis=basis)


@dataclass(frozen=True)
class MomentSpec:
    """Exponent tuple (p, q, r, s, u, v) for ⟨a†ᵖaᵠ b†ʳbˢ c†ᵘcᵛ⟩."""

    p: int
    q: int
    r: int
    s: int
    u: int
    v: int

    def __post_init__(self):
        exps = (self.p, self.q, self.r, self.s, self.u, self.v)
        if any(int(e) != e or e < 0 for e in exps):
            raise ConfigError(f"moment exponents must be >= 0, got {exps!r}")


@functools.lru_cache
def _moment_plan(specs: tuple[MomentSpec, ...], shape: tuple[int, int, int]):
    """One (D, first flat index, result rows, read-only (rows, overlap)
    weights) per distinct occupation offset D of ``specs``."""
    strides = (shape[1] * shape[2], shape[2], 1)
    groups: dict[int, list] = {}
    for row, spec in enumerate(specs):
        orders = ((spec.p, spec.q), (spec.r, spec.s), (spec.u, spec.v))
        if sum(map(sum, orders)) > MAX_MOMENT_ORDER:
            raise ConfigError(f"moment order {sum(map(sum, orders))} exceeds maximum "
                              f"{MAX_MOMENT_ORDER}")
        box, weight = [], np.ones(())
        for (p, q), n in zip(orders, shape):
            k = np.arange(max(n - max(p, q), 0), dtype=float)
            box.append(slice(p, p + k.size))
            factors = k[:, None] + np.r_[1:p + 1, 1:q + 1]
            weight = np.multiply.outer(weight, np.sqrt(factors.prod(axis=1)))
        if weight.size == 0:        # a cutoff below the order: the value is 0
            continue
        flat = np.zeros(shape)
        flat[tuple(box)] = weight
        offset = sum((q - p) * st for (p, q), st in zip(orders, strides))
        groups.setdefault(offset, []).append((row, flat.ravel()))
    plan = []
    for offset, members in groups.items():
        rows, flats = zip(*members)
        inside = np.flatnonzero(np.any(flats, axis=0))     # every weight is >= 1
        lo, hi = inside[0], inside[-1] + 1
        weights = np.array([f[lo:hi] for f in flats])
        weights.flags.writeable = False
        plan.append((offset, lo, np.array(rows), weights))
    return tuple(plan)


def moments(psi: FockStateVector, specs) -> np.ndarray:
    """⟨ψ| a†ᵖaᵠ b†ʳbˢ c†ᵘcᵛ |ψ⟩ for every spec of ``specs``, as a
    (len(specs), *stack) array with one value per stacked state.

    W is √((k+1)…(k+p)·(k+1)…(k+q)) per mode inside the bra box (k = bra
    occupation − p).  Specs sharing an offset D are read together: the
    product of two contiguous slices, D apart, of the (dim, stack)
    amplitudes is contracted with their stacked weights in one real matrix
    product.  A stack of (T, dim) amplitudes that is the transpose of a
    C-ordered (dim, T) array is read without a copy; a state with an
    ``index`` is first expanded into the box (`FockStateVector.box`).
    """
    specs = tuple(specs)
    lead = psi.amplitudes.shape[:-1]
    amps = psi.box().reshape(-1, psi.basis.dimension).T      # (dim, T)
    plan = _moment_plan(specs, psi.basis.shape)
    out = np.zeros((len(specs), amps.shape[1]), dtype=np.complex128)
    width = max((w.shape[1] for *_, w in plan), default=0)
    buf = np.empty((width, amps.shape[1]), dtype=np.complex128)
    for offset, lo, rows, weights in plan:
        prod = buf[:weights.shape[1]]
        hi = lo + prod.shape[0]
        np.conjugate(amps[lo:hi], out=prod)
        prod *= amps[lo + offset:hi + offset]
        out[rows] = (weights @ prod.view(np.float64)).view(np.complex128)
    return out.reshape((len(specs),) + lead)


def _window(k: int, n: int) -> tuple[slice, slice]:
    """Slices of the positions m on an axis of length n with m + k also on
    it, and of those m + k."""
    lo, hi = max(0, -k), min(n, n - k)
    hi = max(hi, lo)
    return slice(lo, hi), slice(lo + k, hi + k)


def _shifted(w: np.ndarray, d) -> np.ndarray:
    """w[n + d] over the grid of ``w``, zero where n + d leaves it."""
    src, dst = zip(*map(_window, d, w.shape))
    out = np.zeros_like(w)
    out[src] = w[dst]
    return out


class ShiftOperator(dict):
    """Operator Σ_d X_d on the truncated grid, stored as {shift d: weights w_d}
    with (X_d ψ)[n] = w_d[n]·ψ[n+d] and ψ zero off the grid, so w_d[n] is
    never read where n + d leaves it.  Products fold left to right, as
    sparse matrix products do."""

    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    def __matmul__(self, other: ShiftOperator) -> ShiftOperator:
        out = ShiftOperator()
        for d, w in self.items():
            for e, v in other.items():
                out = out + {tuple(map(sum, zip(d, e))): w * _shifted(v, d)}
        return out

    def __add__(self, other) -> ShiftOperator:
        out = ShiftOperator(self)
        for d, w in other.items():
            out[d] = out[d] + w if d in out else w
        return out

    def __sub__(self, other: ShiftOperator) -> ShiftOperator:
        return self + -1 * other

    def __rmul__(self, scalar) -> ShiftOperator:
        return ShiftOperator({d: scalar * w for d, w in self.items()})

    @property
    def H(self) -> ShiftOperator:
        """The adjoint, {−d: conj(w[n − d])}."""
        return ShiftOperator({tuple(-k for k in d): np.conj(_shifted(w, [-k for k in d]))
                              for d, w in self.items()})

    def entries(self, shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the matrix elements between occupations
        inside the box ``shape`` (a corner of the grid), as flat C-order
        indices of that box."""
        flat = np.arange(math.prod(shape)).reshape(shape)
        rows, cols, vals = [], [], []
        for d, w in self.items():
            src, dst = zip(*map(_window, d, shape))
            rows.append(flat[src].ravel())
            cols.append(flat[dst].ravel())
            vals.append(w[src].ravel())
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@functools.lru_cache
def ladders(basis: FockBasis) -> tuple[ShiftOperator, ShiftOperator, ShiftOperator]:
    """Truncated lowering operators a, b, c on the basis, (aψ)[n] =
    √(n_a+1)·ψ[n_a+1, n_b, n_c] and likewise for b and c.

    Cached per basis and shared by every caller, so their weights are
    read-only.  Their adjoints are the creation operators, which drop any
    transition past a cutoff.
    """
    occ = np.indices(basis.shape) + 1.0
    out = []
    for mode in range(3):
        w = np.sqrt(occ[mode])
        w.flags.writeable = False
        out.append(ShiftOperator({tuple(int(k == mode) for k in range(3)): w}))
    return tuple(out)

