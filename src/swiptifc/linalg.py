"""Dense complex linear algebra kernels with fixed conventions.

Every factorization used by the library funnels through this module so the
conventions are decided exactly once: spectra come back in descending order,
QR carries a real nonnegative diagonal on R, and Hermitian inputs are
symmetrized before factorization so downstream code never depends on where
rounding noise landed.  `svd`, `qrd`, `inv_sqrt_psd` and `psd_mask` also take
a stack of matrices (..., m, n) and factor each one as LAPACK would alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, RankDeficiencyError, SingularMatrixError

__all__ = [
    "Tolerances",
    "TOL",
    "as_matrix",
    "as_stack",
    "hermitian_part",
    "spectral_norm",
    "svd",
    "hermitian_eig",
    "qrd",
    "inv_sqrt_psd",
    "is_psd",
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
    return as_stack(a, name)


def as_stack(a, name="matrix"):
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
    a = as_stack(a)
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


def qrd(a):
    """Thin QR factorization A = Q R with real nonnegative diag(R).

    Requires rows >= cols and full column rank; rank deficiency raises
    RankDeficiencyError carrying the achieved numerical rank (the lowest
    one over a stack).
    """
    a = as_stack(a)
    m, n = a.shape[-2:]
    if m < n:
        raise InvalidInputError(f"qrd needs rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    cutoff = TOL.rank * np.maximum(mags.max(axis=-1, initial=0.0), 1e-300)
    if n and np.any(mags.min(axis=-1) <= cutoff):
        rank = int(np.min(np.count_nonzero(mags > cutoff[..., None], axis=-1)))
        raise RankDeficiencyError(
            f"matrix of shape {a.shape} has numerical rank {rank}", numerical_rank=rank
        )
    phase = d / mags
    q = q * phase[..., None, :]
    r = r * phase.conj()[..., :, None]
    # exact real diagonal, killing the rounding residue of the phase rotation
    r[..., np.arange(n), np.arange(n)] = mags
    return q, r


def inv_sqrt_psd(a):
    """Hermitian inverse square root B with B A B = I.

    If the smallest eigenvalue is below 1e-12 the matrix (any matrix of a
    stack) is declared singular.
    """
    a = as_stack(a)
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


def is_psd(a):
    """True iff A is Hermitian within TOL.psd and has min eigenvalue >= -TOL.psd.

    Both checks are relative to max(1, ||A||_F) so power-scaled covariances
    are judged at their own magnitude.
    """
    return bool(psd_mask(as_matrix(a)))


def psd_mask(a):
    """`is_psd` of every matrix in a stack (..., m, m), as a boolean array."""
    a = as_stack(a)
    if a.shape[-2] != a.shape[-1]:
        raise InvalidInputError(f"is_psd needs a square matrix, got {a.shape}")
    slack = TOL.psd * np.maximum(1.0, _frobenius(a))
    hermitian = _frobenius(a - _ct(a)) <= slack
    w = np.linalg.eigvalsh(hermitian_part(a))
    return hermitian & (w[..., 0] >= -slack)
