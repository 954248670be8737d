"""Deterministic dense complex linear algebra at the two sizes used here,
and the tolerance policy: each threshold role, named once for every module.

Everything operates on plain ``numpy`` arrays.  Matrices are 3x3 or 9x9;
9x9 matrices are always understood as operators on C^3 (x) C^3 with the
row-major index identification (i, j) -> 3*i + j of the tensor factors.

The roles: membership slack (an equality of exact arithmetic passes within
it, so boundary points of closed sets are members), the face band, the rank
cut, eigenvalue floors, self-check residues (two routes to one quantity, or
a quantity zero in exact arithmetic), the certified sign of a minimum, the
rounding bound of a subdivision certificate and the tiny value that keeps a
floor or a divisor positive where every term vanishes.
"""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianError

Array = np.ndarray


INCLUSION_SLACK = 1e-12  # membership slack
FACE_TOL = 1e-9  # face band: half-width around each boundary piece of the body
RANK_REL = 1e-8  # rank cut: components below this fraction of the largest do not count
EIG_FLOOR = 1e-8  # eigenvalue floor at sampled product vectors, relative to the largest
HESSIAN_FLOOR = 1e-10  # eigenvalue floor of the exact Hessian at a kernel vector
RESIDUE_ABS = 1e-10  # self-check residue, entrywise
RESIDUE_REL = 1e-9  # self-check residue, relative to the scale of the quantity
STATIONARY_REL = 1e-8  # first-order residue at a kernel vector, itself within RESIDUE_REL
CERTIFIED_SIGN = 1e-6  # certified sign: a minimum below -CERTIFIED_SIGN is negative
CERTIFIED_ZERO = 1e-9  # ... at or above -CERTIFIED_ZERO nonnegative; a weight at most it is zero
SUBDIVISION_ROUNDING = 4e-15  # rounding bound per subdivision level of a Bernstein coefficient, in its scale
_TINY = 1e-300  # the Newton floor stays above it; a top eigenvalue at or below it leaves a kernel limit infinite


def as_complex(m) -> Array:
    """Return ``m`` as a C-contiguous complex ndarray."""
    return np.ascontiguousarray(np.asarray(m, dtype=complex))


def require_hermitian(m) -> Array:
    """Validate a finite square matrix, or a stack of them, Hermitian within
    RESIDUE_ABS, and return it symmetrized; raises NonHermitianError
    otherwise.

    An exactly Hermitian matrix is returned as it is: halving a subnormal
    entry rounds it.  Otherwise the halves are summed, not halved after
    summing, so entries near the largest double do not overflow (halving a
    normal double is exact)."""
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NonHermitianError(f"matrix is not square: shape {m.shape}")
    adjoint = m.conj().swapaxes(-2, -1)
    with np.errstate(invalid="ignore"):  # an inf or NaN entry gives a NaN defect
        defect = float(np.abs(m - adjoint).max()) if m.size else 0.0
    if not defect <= RESIDUE_ABS:
        raise NonHermitianError(f"matrix is not Hermitian: defect {defect:.3e} > {RESIDUE_ABS:.1e}")
    return m if defect == 0.0 else m / 2 + adjoint / 2


def hermitian_eigenvalues(m) -> Array:
    """Eigenvalues of a Hermitian matrix, ascending, or of each matrix of a
    stack.

    Raises NonHermitianError unless ``require_hermitian`` accepts ``m``.
    """
    return np.linalg.eigvalsh(require_hermitian(m))


def partial_transpose(m) -> Array:
    """Transpose the second tensor factor of a 9x9 matrix.

    The entry at ((i, j), (k, l)) moves to ((i, l), (k, j)); applying the
    operation twice restores the input exactly.
    """
    m = as_complex(m)
    if m.shape != (9, 9):
        raise ValueError(f"partial_transpose requires a 9x9 matrix, got {m.shape}")
    return np.ascontiguousarray(m.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9))
