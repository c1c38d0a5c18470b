"""Rate, harvested-energy and leakage-ratio metrics plus their input types.

Rates are reported in bits (log base 2) throughout.  Harvested energy uses
unit conversion efficiency and ignores the noise contribution, so receiver i
collects sum_j tr(H_ij Q_j H_ij^H).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .linalg import _as_real, as_matrix, hermitian_part, inv_sqrt_psd, psd_mask, spectral_norm

__all__ = [
    "TxCovariance",
    "Beamformer",
    "canonical_beam",
    "canonical_directions",
    "check_covariances",
    "check_unit_rows",
    "interference_cov",
    "achievable_rate",
    "harvested_energy",
    "sler",
    "sler_ratios",
    "slnr",
]

_LN2 = float(np.log(2.0))

# relative slack accepted on the trace budget and on unit norms
_BUDGET_SLACK = 1e-9
_UNIT_SLACK = 1e-10


def _cov_array(q, name="Q"):
    """Accept a TxCovariance or a raw array; return the matrix."""
    if isinstance(q, TxCovariance):
        return q.q
    return as_matrix(q, name)


@dataclass(frozen=True)
class TxCovariance:
    """Transmit covariance with the power budget it was built against.

    Invariants: Q Hermitian PSD within 1e-9 and tr(Q) <= budget*(1+1e-9).
    """

    q: np.ndarray
    budget: float

    def __post_init__(self):
        q = as_matrix(self.q, "Q")
        if q.shape[0] != q.shape[1]:
            raise InvalidInputError(f"Q must be square, got {q.shape}")
        object.__setattr__(self, "q", q)
        budget = _as_real(self.budget, "budget")
        object.__setattr__(self, "budget", budget)
        check_covariances(q, budget)

    @property
    def trace(self):
        return float(np.trace(self.q).real)


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm transmit direction and the power sent along it."""

    v: np.ndarray
    power: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.complex128)
        if v.ndim != 1:
            raise InvalidInputError(f"beamformer must be 1-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("beamformer contains non-finite entries")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > _UNIT_SLACK:
            raise InvalidInputError(f"beamformer norm is {nrm!r}, expected 1")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "power", _as_real(self.power, "power"))

    def covariance(self):
        """Rank-one covariance power * v v^H."""
        return TxCovariance(self.power * np.outer(self.v, self.v.conj()), self.power)


def check_covariances(qs, budget):
    """Raise InvalidInputError unless every Q of a stack (..., m, m) is
    Hermitian PSD within 1e-9 and has tr(Q) <= budget * (1 + 1e-9): the
    invariants of `TxCovariance`."""
    if not psd_mask(qs).all():
        raise InvalidInputError("Q is not Hermitian PSD within tolerance")
    worst = float(np.trace(qs, axis1=-2, axis2=-1).real.max())
    if worst > budget * (1.0 + _BUDGET_SLACK) + 1e-15:
        raise InvalidInputError(f"tr(Q) = {worst!r} exceeds budget {budget!r}")


def canonical_beam(v, power):
    """Normalize a direction and fix its phase so the first entry above
    1e-12 * ||v|| is real positive; returns a Beamformer."""
    v = np.asarray(v, dtype=np.complex128).reshape(1, -1)
    return Beamformer(canonical_directions(v)[0], power)


def canonical_directions(vs):
    """`canonical_beam`'s direction for every row of a stack (n, m).

    Raises InvalidInputError if a row is zero or non-finite.
    """
    v = np.array(vs, dtype=np.complex128)
    nrm = _row_norms(v)
    if not np.all((nrm > 0) & np.isfinite(nrm)):
        raise InvalidInputError("cannot normalize a zero or non-finite direction")
    v /= nrm[:, None]
    big = np.abs(v) > 1e-12
    rows = np.flatnonzero(big.any(axis=1))
    first = big[rows].argmax(axis=1)
    pivot = v[rows, first]
    # hypot rounds as abs() of one complex scalar does
    size = np.hypot(pivot.real, pivot.imag)
    v[rows] *= (pivot.conj() / size)[:, None]
    v[rows, first] = size  # exact, not just up to rounding
    return v


def check_unit_rows(v):
    """Raise InvalidInputError unless every row of a stack (n, m) has unit
    norm within the Beamformer tolerance."""
    if np.any(np.abs(_row_norms(v) - 1.0) > _UNIT_SLACK):
        raise InvalidInputError("beamformer norm deviates from 1")


def _squares(x):
    # square each entry as a Python float, as `sler` always has: scalar ** 2
    # is libm's pow, which can round differently from an array's x * x
    return np.array([t**2 for t in x.tolist()])


def _row_norms(v):
    # the 1-D np.linalg.norm, row by row: re.re + im.im as dot products
    re, im = v.real[:, None, :], v.imag[:, None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[:, 0, 0])


def interference_cov(h_cross, q_other):
    """Interference-plus-noise covariance I + H Q H^H (Hermitian PD)."""
    h = as_matrix(h_cross, "h_cross")
    q = _cov_array(q_other)
    r = np.eye(h.shape[0], dtype=np.complex128) + h @ q @ h.conj().T
    return hermitian_part(r)


def achievable_rate(h_own, r_minus, q):
    """Achievable rate log2 det(I + H^H R^{-1} H Q) in bits.

    Evaluated through the symmetrized form
    log2 det(I + R^{-1/2} H Q H^H R^{-1/2}) so the determinant argument is
    Hermitian PSD.  Raises SingularMatrixError if R is singular.
    """
    h = as_matrix(h_own, "h_own")
    b = inv_sqrt_psd(as_matrix(r_minus, "r_minus")) @ h
    s = b @ _cov_array(q) @ b.conj().T
    sign, logdet = np.linalg.slogdet(
        np.eye(h.shape[0], dtype=np.complex128) + hermitian_part(s)
    )
    if sign.real <= 0:
        raise InvalidInputError("rate determinant is not positive; Q is not PSD")
    return max(float(logdet) / _LN2, 0.0)


def harvested_energy(cs, q1, q2, receiver):
    """Energy collected at `receiver`: sum_j tr(H_rj Q_j H_rj^H)."""
    if receiver not in (1, 2):
        raise InvalidInputError(f"receiver must be 1 or 2, got {receiver!r}")
    h1 = cs.h11 if receiver == 1 else cs.h21
    h2 = cs.h12 if receiver == 1 else cs.h22
    total = 0.0
    for h, q in ((h1, q1), (h2, q2)):
        qm = _cov_array(q)
        total += float(np.einsum("ij,jk,ik->", h, qm, h.conj()).real)
    return max(total, 0.0)


def sler(v, h_own, h_cross, e_bar):
    """Signal-to-leakage-and-energy ratio of a beamformer.

    ratio = P1 ||H_own v||^2 / (P1 ||H_cross v||^2 + floor), with
    floor = max(e_bar - P1 ||H_own||_2^2, 0).  A vanishing denominator
    returns +inf.
    """
    if not isinstance(v, Beamformer):
        raise InvalidInputError("v must be a Beamformer")
    e_bar = _as_real(e_bar, "e_bar")
    return float(sler_ratios(v.v[None], v.power, h_own, h_cross, np.array([e_bar]))[0])


def sler_ratios(vs, p1, h_own, h_cross, e_bars):
    """`sler` of every row of a stack of unit directions (n, M_t), each sent
    at power P1 against its own energy target of `e_bars` (n,).

    ||H_own||_2 is computed once; each ratio equals `sler` of its row.
    """
    h_own = as_matrix(h_own, "h_own")
    h_cross = as_matrix(h_cross, "h_cross")
    p1 = _as_real(p1, "power")
    e_bars = np.asarray(e_bars, dtype=float)
    if not np.all(np.isfinite(e_bars) & (e_bars >= 0)):
        raise InvalidInputError("e_bar must be a finite nonnegative real")
    vs = np.asarray(vs, dtype=np.complex128)[:, :, None]
    num = p1 * _squares(_row_norms((h_own @ vs)[..., 0]))
    den = p1 * _squares(_row_norms((h_cross @ vs)[..., 0]))
    den += np.maximum(e_bars - p1 * spectral_norm(h_own) ** 2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den < 1e-15, np.inf, num / den)


def slnr(v, h_own, h_cross, noise_floor):
    """Signal-to-leakage-plus-noise ratio ||H_own v||^2 / (||H_cross v||^2 + noise_floor)."""
    if not isinstance(v, Beamformer):
        raise InvalidInputError("v must be a Beamformer")
    noise_floor = _as_real(noise_floor, "noise_floor", positive=True)
    h_own = as_matrix(h_own, "h_own")
    h_cross = as_matrix(h_cross, "h_cross")
    num = float(np.linalg.norm(h_own @ v.v) ** 2)
    den = float(np.linalg.norm(h_cross @ v.v) ** 2) + noise_floor
    return num / den
