"""krylovflow: Krylov-complexity growth bounds for dissipative spin chains.

Builds Lindbladian superoperators for open transverse-field Ising chains,
tridiagonalizes them with a bi-orthogonal Lanczos recursion, evolves
operator amplitudes on the resulting Krylov chain, and checks the
dispersion (speed-limit) bound on complexity growth, together with
continuum closed forms checked against their exact characteristics.
"""

__version__ = "0.1.0"
