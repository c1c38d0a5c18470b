"""Dense complex linear algebra kernels with fixed conventions.

The checked factorizations live here, with their conventions decided once:
spectra come back in descending order, and Hermitian inputs are symmetrized
before factorization so downstream code never depends on where rounding
noise landed.  `svd`, `inv_sqrt_psd` and `psd_mask` also take a stack of
matrices (..., m, n) and factor each one as LAPACK would alone.  The
solver's stacked inner loops (`beamformers.waterfill_stack`,
`_ratio_factor` and `_ratio_directions`, `boundary._Rays` and
`_whitened_links`) call numpy directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, SingularMatrixError

__all__ = [
    "Tolerances",
    "TOL",
    "as_matrix",
    "hermitian_part",
    "spectral_norm",
    "svd",
    "hermitian_eig",
    "inv_sqrt_psd",
    "psd_mask",
]


@dataclass(frozen=True)
class Tolerances:
    """Global numeric tolerances; the shared instance is `TOL`."""

    factorization: float = 1e-10  # residual bound on decomposition identities
    psd: float = 1e-9             # slack accepted when validating PSD matrices
    rank: float = 1e-12           # relative cutoff declaring numerical rank loss


TOL = Tolerances()


def as_matrix(a, name="matrix"):
    """Validate `a` as a finite 2-D array and return it as complex128."""
    if np.ndim(a) != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {np.shape(a)}")
    return _as_stack(a, name)


def _as_stack(a, name="matrix"):
    """Validate `a` as a finite array of matrices (..., m, n) and return it as
    complex128."""
    arr = np.asarray(a)
    if arr.ndim < 2:
        raise InvalidInputError(f"{name} must be at least 2-D, got shape {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _as_real(x, name, positive=False):
    """Validate `x` as a finite real number (not a bool or a string) that is
    nonnegative, or positive with `positive`, and return it as a float."""
    try:
        if isinstance(x, (bool, np.bool_, str, bytes)):
            raise TypeError
        value = float(x)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        kind = "positive" if positive else "nonnegative"
        raise InvalidInputError(f"{name} must be finite {kind}, got {x!r}")
    return value


def _as_reals(x, name):
    """`_as_real` for an array of values: return `x` as a float array whose
    entries are finite nonnegative real numbers, none of them a bool or a
    string."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "fiu":
        values = x.astype(float, copy=False)
    else:
        try:
            items = np.asarray(x, dtype=object)
            if any(isinstance(t, (bool, np.bool_, str, bytes)) for t in items.flat):
                raise TypeError
            values = items.astype(float)
        except (TypeError, ValueError):
            values = np.array(math.nan)
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise InvalidInputError(f"{name} must be finite nonnegative, got {x!r}")
    return values


def _frobenius(a):
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)))


def _ct(a):
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a):
    """(A + A^H)/2, the projection onto Hermitian matrices (per matrix of a
    stack)."""
    return (a + _ct(a)) / 2.0


def spectral_norm(a):
    """Largest singular value of A."""
    return float(np.linalg.norm(as_matrix(a), 2))


def svd(a):
    """Full SVD A = U diag(s) V^H with s descending.

    Returns (U, s, V).  V holds right singular vectors as columns, so the
    transmit direction aimed at the k-th gain is ``V[:, k]`` and the least
    leaking direction into A is ``V[:, -1]``.
    """
    a = _as_stack(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return u, s, _ct(vh)


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before factorization.  Deviation from Hermitian
    beyond TOL.factorization (relative to ||A||_F, floored at 1) is treated
    as a caller bug rather than silently averaged away.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"hermitian_eig needs a square matrix, got {a.shape}")
    dev = np.linalg.norm(a - a.conj().T)
    if dev > TOL.factorization * max(1.0, np.linalg.norm(a)):
        raise InvalidInputError(f"matrix is not Hermitian (deviation {dev:.3e})")
    w, v = np.linalg.eigh(hermitian_part(a))
    return w[::-1].copy(), v[:, ::-1].copy()


def inv_sqrt_psd(a):
    """Hermitian inverse square root B with B A B = I.

    If the smallest eigenvalue is below 1e-12 the matrix (any matrix of a
    stack) is declared singular.
    """
    a = _as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise InvalidInputError(f"inv_sqrt_psd needs a square matrix, got {a.shape}")
    w, v = np.linalg.eigh(hermitian_part(a))
    low = float(w[..., 0].min())
    if low < 1e-12:
        raise SingularMatrixError(
            f"matrix is not positive definite (smallest eigenvalue {low:.3e})"
        )
    b = (v / np.sqrt(w)[..., None, :]) @ _ct(v)
    return hermitian_part(b)


def psd_mask(a):
    """Per matrix of a stack (..., m, m), as a boolean array: True iff it is
    Hermitian within TOL.psd and has min eigenvalue >= -TOL.psd.

    Both checks are relative to max(1, ||A||_F) so power-scaled covariances
    are judged at their own magnitude.
    """
    a = _as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise InvalidInputError(f"psd_mask needs a square matrix, got {a.shape}")
    slack = TOL.psd * np.maximum(1.0, _frobenius(a))
    hermitian = _frobenius(a - _ct(a)) <= slack
    w = np.linalg.eigvalsh(hermitian_part(a))
    return hermitian & (w[..., 0] >= -slack)
