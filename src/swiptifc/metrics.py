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


def _check_spectra(powers, traces, budget):
    """`check_covariances` for covariances held in spectral form, powers
    (..., K) on orthonormal directions and traces (...): raise
    InvalidInputError unless every power is finite and >= 0 and every trace
    is at most budget * (1 + 1e-9)."""
    if not np.all(np.isfinite(powers) & (powers >= 0.0)):
        raise InvalidInputError("Q has a negative or non-finite power")
    if not np.all(traces <= budget * (1.0 + _BUDGET_SLACK) + 1e-15):
        raise InvalidInputError(f"tr(Q) = {float(np.max(traces))!r} exceeds budget {budget!r}")


def canonical_beam(v, power):
    """Normalize a direction and fix its phase so the first entry above
    1e-12 * ||v|| is real positive; returns a Beamformer."""
    v = np.asarray(v, dtype=np.complex128).reshape(1, -1)
    return Beamformer(canonical_directions(v)[0], power)


def _unit_rows(vs):
    """Each row of a stack (n, m) divided by its norm, as a new complex
    array.  Raises InvalidInputError if a row is zero or non-finite."""
    v = np.array(vs, dtype=np.complex128)
    nrm = _row_norms(v)
    if not np.all((nrm > 0) & np.isfinite(nrm)):
        raise InvalidInputError("cannot normalize a zero or non-finite direction")
    v /= nrm[:, None]
    return v


def canonical_directions(vs):
    """`canonical_beam`'s direction for every row of a stack (n, m).

    Raises InvalidInputError if a row is zero or non-finite.
    """
    v = _unit_rows(vs)
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


def _row_norms(v):
    # the 1-D np.linalg.norm, row by row: re.re + im.im as dot products
    re, im = v.real[:, None, :], v.imag[:, None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[:, 0, 0])


def _beam_gain(h, f):
    """||H F||_F^2 = tr(H F F^H H^H) of a beam factor F (m, k), or of each
    pair of two stacks."""
    hf = h @ f
    return np.sum(hf.real**2 + hf.imag**2, axis=(-2, -1))


def sler_floor(h11_norm2, e_bars, p1s):
    """Energy-shortfall floors max(e_bar / P1 - ||H11||_2^2, 0) in the SLER
    denominator (per unit transmit power), elementwise over arrays of
    ||H11||_2^2, e_bar and P1.  Every SLER beam and ratio takes its floor
    from here."""
    return np.maximum(np.asarray(e_bars, dtype=float) / p1s - h11_norm2, 0.0)


def _rates(b, q):
    """log2 det(I + B Q B^H) >= 0 in bits of each (B, Q) pair of two stacks.

    Raises InvalidInputError if a determinant is not positive.
    """
    s = b @ q @ b.conj().swapaxes(-1, -2)
    sign, logdet = np.linalg.slogdet(
        np.eye(b.shape[-2], dtype=np.complex128) + hermitian_part(s)
    )
    if np.any(sign.real <= 0):
        raise InvalidInputError("rate determinant is not positive; Q is not PSD")
    return np.maximum(logdet / _LN2, 0.0)


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
    b = inv_sqrt_psd(as_matrix(r_minus, "r_minus")) @ as_matrix(h_own, "h_own")
    return float(_rates(b, _cov_array(q)))


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
    """Signal-to-leakage-and-energy ratio of a beamformer sent at P1 > 0.

    ratio = ||H_own v||^2 / (||H_cross v||^2 + floor), with the per-unit-power
    floor `sler_floor` = max(e_bar / P1 - ||H_own||_2^2, 0).  A denominator
    P1 (||H_cross v||^2 + floor) below 1e-15 returns +inf.
    """
    if not isinstance(v, Beamformer):
        raise InvalidInputError("v must be a Beamformer")
    e_bar = _as_real(e_bar, "e_bar")
    h_own = as_matrix(h_own, "h_own")
    h_cross = as_matrix(h_cross, "h_cross")
    p1 = _as_real(v.power, "power", positive=True)
    floor = sler_floor(spectral_norm(h_own) ** 2, e_bar, p1)
    return float(_floored_ratios(v.v[None], p1, h_own, h_cross, floor)[0])


def _floored_ratios(vs, p1, h_own, h_cross, floors):
    """`sler` of every row of a stack of unit directions (n, M_t), each sent
    at power P1 > 0, at floors already taken from `sler_floor` (one per row,
    or one for all)."""
    f = np.asarray(vs, dtype=np.complex128)[:, :, None]
    num = p1 * _beam_gain(h_own, f)
    den = p1 * (_beam_gain(h_cross, f) + floors)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den < 1e-15, np.inf, num / den)


def slnr(v, h_own, h_cross, noise_floor):
    """Signal-to-leakage-plus-noise ratio ||H_own v||^2 / (||H_cross v||^2 + noise_floor)."""
    if not isinstance(v, Beamformer):
        raise InvalidInputError("v must be a Beamformer")
    noise_floor = _as_real(noise_floor, "noise_floor", positive=True)
    f = v.v[:, None]
    num = float(_beam_gain(as_matrix(h_own, "h_own"), f))
    den = float(_beam_gain(as_matrix(h_cross, "h_cross"), f)) + noise_floor
    return num / den
