"""Independent scipy.sparse reference for fwm's weighted-shift operators.

The truncated ladders are Kronecker products of CSR matrices, and the
Heisenberg monomials of the second-order solution and the model Hamiltonian
are CSR products of them.  Nothing here uses fwm's operator algebra.
"""
import functools
import operator

import numpy as np
import scipy.sparse as sp

# the operator multiplying each coefficient in a(t), b(t) and c(t)
MONOMIALS = {
    "f1": "A", "f2": "Ad B C", "f3": "A Bd B Cd C", "f4": "Ad A A Cd C",
    "f5": "Ad A A B Bd",
    "g1": "B", "g2": "A A Cd", "g3": "A A Ad Ad B", "g4": "Ad A B C Cd",
    "g5": "A Ad B C Cd",
    "h1": "C", "h2": "A A Bd", "h3": "A A Ad Ad C", "h4": "Ad A C B Bd",
    "h5": "A Ad C B Bd",
}


def csr_ladders(shape):
    """Truncated lowering operators a, b, c as real CSR matrices."""
    eye = [sp.identity(n, format="csr") for n in shape]
    out = []
    for mode, n in enumerate(shape):
        factors = list(eye)
        factors[mode] = sp.diags(np.sqrt(np.arange(1.0, n)), 1, shape=(n, n))
        out.append(sp.kron(sp.kron(factors[0], factors[1]), factors[2], format="csr"))
    return tuple(out)


def csr_monomial(shape, word):
    """Product of the ladder factors named in ``word``, left to right."""
    A, B, C = csr_ladders(shape)
    ops = {"A": A, "B": B, "C": C,
           "Ad": A.T.tocsr(), "Bd": B.T.tocsr(), "Cd": C.T.tocsr()}
    return functools.reduce(operator.matmul, [ops[f] for f in word.split()]).tocsr()


def csr_heisenberg(coeffs, shape):
    """a(t), b(t), c(t) as CSR matrices from a coefficient set."""
    return tuple(sum(getattr(coeffs, f"{x}{i}") * csr_monomial(shape, MONOMIALS[f"{x}{i}"])
                     for i in range(1, 6)).tocsr()
                 for x in "fgh")


def csr_hamiltonian(params, shape):
    """diag(ω·n) + g(a²b†c† + h.c.) as a complex CSR matrix."""
    pump = csr_monomial(shape, "A A Bd Cd")
    na, nb, nc = np.indices(shape).reshape(3, -1)
    energy = params.omega_a * na + params.omega_b * nb + params.omega_c * nc
    H = sp.diags(energy.astype(np.complex128)) + params.g * (pump + pump.T)
    return H.tocsr()


def low_block(M, shape, low_shape):
    """Dense block of M between occupations inside the corner ``low_shape``
    of the grid ``shape``."""
    idx = np.ravel_multi_index(np.indices(low_shape).reshape(3, -1), shape)
    return M.tocsr()[idx][:, idx].toarray()
