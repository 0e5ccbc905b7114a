"""Pauli operators, the transverse-field Ising Hamiltonian, and jump operators.

All operators are dense complex ``numpy`` arrays. Tensor convention: site 1 is
the leftmost Kronecker factor, so ``site_operator(op, 1, N)`` is
``op (x) I (x) ... (x) I``.
"""

from dataclasses import dataclass
from functools import reduce
import math

import numpy as np

from .exceptions import require_integer

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_PLUS = 0.5 * (PAULI_X + 1.0j * PAULI_Y)
PAULI_MINUS = 0.5 * (PAULI_X - 1.0j * PAULI_Y)
for _op in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PAULI_PLUS, PAULI_MINUS):
    _op.setflags(write=False)   # shared by every caller, so read-only


def site_operator(op, site, n_sites):
    """Embed a 2x2 operator at ``site`` (1-based) of an ``n_sites`` chain.

    The result is a new array, at one site too.
    """
    op = np.array(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("site operator must be 2x2")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside 1..{n_sites}")
    factors = [op if k == site else PAULI_I for k in range(1, n_sites + 1)]
    return reduce(np.kron, factors)


@dataclass(frozen=True)
class ModelSpec:
    """Spin-chain couplings g, h and jump strengths alpha, gamma.

    :func:`build_jump_operators` places the jumps: sqrt(alpha) sigma+- on
    the end sites 1 and N, sqrt(gamma) sigma^z on the bulk sites 2..N-1.
    """

    N: int
    g: float
    h: float
    alpha: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        require_integer(self.N, "N")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        for name in ("g", "h", "alpha", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0 or self.gamma < 0:
            raise ValueError("jump strengths must be nonnegative")

    @property
    def dim(self):
        return 2 ** self.N


def build_tfim(spec):
    """Open-boundary TFIM: H = -sum ZZ - g sum X - h sum Z."""
    d = spec.dim
    H = np.zeros((d, d), dtype=complex)
    for j in range(1, spec.N):
        H -= site_operator(PAULI_Z, j, spec.N) @ site_operator(PAULI_Z, j + 1, spec.N)
    for j in range(1, spec.N + 1):
        H -= spec.g * site_operator(PAULI_X, j, spec.N)
        H -= spec.h * site_operator(PAULI_Z, j, spec.N)
    return H


def build_jump_operators(spec):
    """Jump operators of the paper's chain, in this order.

    sqrt(alpha) sigma+ and sigma- on site 1, then on site N (once when
    N = 1), then sqrt(gamma) sigma^z on sites 2..N-1; a zero strength
    places none.  Empty list when alpha = gamma = 0.
    """
    jumps = []
    if spec.alpha > 0:
        root_a = math.sqrt(spec.alpha)
        for k in sorted({1, spec.N}):
            jumps.append(root_a * site_operator(PAULI_PLUS, k, spec.N))
            jumps.append(root_a * site_operator(PAULI_MINUS, k, spec.N))
    if spec.gamma > 0:
        root_g = math.sqrt(spec.gamma)
        for k in range(2, spec.N):
            jumps.append(root_g * site_operator(PAULI_Z, k, spec.N))
    return jumps
