"""Transmit covariance constructions: water-filling and rank-one beam families.

Strategy identifiers used across the library:

* ``meb``       maximum-energy beam, top right singular vector of the direct link
* ``mlb``       minimum-leakage beam, least right singular vector of the cross link
* ``sler``      signal-to-leakage-and-energy-ratio beam (QR + SVD construction)
* ``slnr``      signal-to-leakage-plus-noise-ratio beam
* ``meb_rank2`` two-stream energy beam with a fixed power split
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import stacked_channel
from .exceptions import DegenerateChannelError, InvalidInputError, RankDeficiencyError
from .linalg import _as_real, as_matrix, hermitian_part, inv_sqrt_psd, qrd, spectral_norm, svd
from .metrics import (
    Beamformer,
    TxCovariance,
    achievable_rate,
    canonical_beam,
    check_covariances,
    interference_cov,
)

__all__ = [
    "STRATEGIES",
    "check_strategy",
    "water_level",
    "waterfill",
    "waterfill_stack",
    "IwfResult",
    "iterative_waterfilling",
    "eh_eh_optimal",
    "meb",
    "mlb",
    "meb_rank2",
    "sler_beam",
    "sler_directions",
    "slnr_beam",
    "slnr_directions",
]

STRATEGIES = ("meb", "mlb", "sler", "slnr", "meb_rank2")


def check_strategy(strategy):
    """Validate a strategy id, returning it unchanged."""
    if strategy not in STRATEGIES:
        raise InvalidInputError(
            f"unknown strategy {strategy!r}; valid ids: {', '.join(STRATEGIES)}"
        )
    return strategy


def water_level(floors, p, weights=None):
    """Exact level eta with sum_k w_k (eta - a_k)^+ = P, by sorting the floors.

    `floors` a_k are finite or +inf (a mode that takes no power), `weights`
    w_k positive (default all ones) and P positive.  The spent power is
    piecewise linear in eta with breakpoints at the sorted floors; with the m
    lowest floors active the level is (P + sum_{k<m} w_k a_k) / sum_{k<m} w_k,
    and m is the number of floors below that level (Palomar & Fonollosa,
    IEEE TSP 2005).  Floors of shape (n, K) give one level per row.
    """
    floors = np.asarray(floors, dtype=float)
    if weights is None:
        a = np.sort(floors, axis=-1)
        w = np.ones_like(a)
    else:
        order = floors.argsort(axis=-1)
        pick = order if floors.ndim == 1 else (np.arange(len(floors))[:, None], order)
        a = floors[pick]
        w = np.asarray(weights, dtype=float)[pick]
    cw = w.cumsum(axis=-1)
    cwa = (w * a).cumsum(axis=-1)
    # power spent once the level reaches each floor past the first
    spent_at = a[..., 1:] * cw[..., :-1]
    if (a[..., -1] == np.inf).any():
        # past an infinite floor this is inf or nan, and neither counts below P
        with np.errstate(invalid="ignore"):
            spent_at -= cwa[..., :-1]
    else:
        spent_at -= cwa[..., :-1]
    m = (spent_at < p).sum(axis=-1)
    if floors.ndim == 1:
        return float((p + cwa[m]) / cw[m])
    rows = np.arange(len(a))
    return (p + cwa[rows, m]) / cw[rows, m]


def waterfill(h, r_noise, p):
    """Water-filling covariance for log det(I + H^H R^{-1} H Q), tr(Q) <= P.

    Eigenmodes come from H^H R^{-1} H = U D U^H; powers are (eta - 1/d_i)^+
    with the water level eta from the exact sort-based `water_level`.  The
    full budget is always spent.
    """
    h = as_matrix(h, "h")
    p = _as_real(p, "power budget")
    m_t = h.shape[1]
    if p == 0.0:
        return TxCovariance(np.zeros((m_t, m_t), dtype=np.complex128), 0.0)
    b = h if r_noise is None else inv_sqrt_psd(as_matrix(r_noise, "r_noise")) @ h
    return TxCovariance(waterfill_stack(b, p), p)


def waterfill_stack(b, p):
    """`waterfill` for one whitened channel B (M_r, M_t) or a stack of them
    (n, M_r, M_t), at P > 0.

    Returns the Hermitian covariances, unvalidated.
    """
    _, s, vh = np.linalg.svd(b)
    d = s**2
    if d.shape[-1] < b.shape[-1]:
        # modes beyond the receive dimension carry no gain
        d = np.concatenate((d, np.zeros(d.shape[:-1] + (b.shape[-1] - d.shape[-1],))), axis=-1)
    if not d[..., 0].all():
        raise DegenerateChannelError("channel is numerically zero; no mode to fill")
    inv = np.divide(1.0, d, out=np.full_like(d, np.inf), where=d > d[..., :1] * 1e-15)
    powers = np.maximum(np.asarray(water_level(inv, p))[..., None] - inv, 0.0)
    v = vh.conj().swapaxes(-1, -2)
    return hermitian_part((v * powers[..., None, :]) @ vh)


@dataclass
class IwfResult:
    """Outcome of the selfish rate game between the two transmitters."""

    q1: TxCovariance
    q2: TxCovariance
    rates: tuple
    deltas: list
    iterations: int
    converged: bool


def iterative_waterfilling(cs, p, n_max=20, update="simultaneous"):
    """Iterative water-filling for the (decode, decode) operating mode.

    Starting from uniform covariances (P/M_t) I, each transmitter repeatedly
    water-fills against the other's interference.  `update` chooses whether
    both react to the previous round ("simultaneous") or transmitter 2 sees
    transmitter 1's fresh answer ("sequential").  Runs until the covariance
    movement stalls or `n_max` rounds.

    The pair (Q1, Q2) is held as one stack, so a simultaneous round is one
    stacked pass of `_responses` over both transmitters; a sequential round
    runs the same pass on transmitter 1's row, then on transmitter 2's.
    Every stacked factorization and product treats each matrix as it would
    alone, so the result is bit for bit that of two `waterfill` calls per
    round (`swiptifc.oracle.iterative_waterfilling_per_user`).
    """
    if update not in ("simultaneous", "sequential"):
        raise InvalidInputError(f"update must be simultaneous or sequential, got {update!r}")
    if not isinstance(n_max, numbers.Integral) or isinstance(n_max, bool) or n_max < 1:
        raise InvalidInputError(f"n_max must be an integer >= 1, got {n_max!r}")
    p = _as_real(p, "power budget")
    own = np.stack((cs.h11, cs.h22))
    cross = np.stack((cs.h12, cs.h21))
    q = np.stack(2 * [(p / cs.m_t) * np.eye(cs.m_t, dtype=np.complex128)])
    deltas = []
    converged = False
    it = 0
    for it in range(1, n_max + 1):
        if update == "simultaneous":
            q_new = _responses(own, cross, q[::-1], p)
        else:
            q1_new = _responses(own[:1], cross[:1], q[1:], p)
            q_new = np.concatenate((q1_new, _responses(own[1:], cross[1:], q1_new, p)))
        step = q_new - q
        delta = max(float(np.linalg.norm(step[0])), float(np.linalg.norm(step[1])))
        deltas.append(delta)
        q = q_new
        if delta < 1e-10 * max(p, 1.0):
            converged = True
            break
    rates = (
        achievable_rate(cs.h11, interference_cov(cs.h12, q[1]), q[0]),
        achievable_rate(cs.h22, interference_cov(cs.h21, q[0]), q[1]),
    )
    return IwfResult(
        q1=TxCovariance(q[0], p),
        q2=TxCovariance(q[1], p),
        rates=rates,
        deltas=deltas,
        iterations=it,
        converged=converged,
    )


def _responses(own, cross, q_other, p):
    """`waterfill`'s answer of each transmitter of a stack to the other's
    interference: direct links (n, M_r, M_t), cross links into the same
    receivers, the others' covariances (n, M_t, M_t), budget P >= 0.

    Checked as `TxCovariance` checks each covariance.
    """
    if p == 0.0:
        return np.zeros_like(q_other)
    # I + H Q H^H; `inv_sqrt_psd` takes its Hermitian part, as
    # `interference_cov` would
    leak = cross @ q_other @ cross.conj().swapaxes(-1, -2)
    r = np.eye(own.shape[-2], dtype=np.complex128) + leak
    q = waterfill_stack(inv_sqrt_psd(r) @ own, p)
    check_covariances(q, p)
    return q


def eh_eh_optimal(cs, p):
    """Optimal covariances for the (harvest, harvest) mode.

    Each transmitter beams all power along the top right singular vector of
    its stacked two-receiver channel; the summed harvested energy
    P (sigma_1^2 + sigma_2^2) of those stacked gains is the maximum over all
    PSD covariance pairs.  Returns (Q1, Q2, total_energy).
    """
    p = _as_real(p, "power budget")
    covs = []
    total = 0.0
    for tx in (1, 2):
        hbar = stacked_channel(cs, tx)
        _, s, v = svd(hbar)
        covs.append(canonical_beam(v[:, 0], p).covariance())
        total += p * float(s[0] ** 2)
    return covs[0], covs[1], total


def meb(h11, p1):
    """Maximum-energy beam: all of P1 along the top right singular vector."""
    h11 = as_matrix(h11, "h11")
    _, _, v = svd(h11)
    return canonical_beam(v[:, 0], float(p1))


def mlb(h_cross, p1):
    """Minimum-leakage beam: P1 along the least right singular vector of the
    cross link (exactly its null space when one exists)."""
    h_cross = as_matrix(h_cross, "h_cross")
    _, _, v = svd(h_cross)
    return canonical_beam(v[:, -1], float(p1))


def meb_rank2(h11, p1, split=0.5):
    """Two-stream energy covariance P1 (split v1 v1^H + (1-split) v2 v2^H)."""
    h11 = as_matrix(h11, "h11")
    if h11.shape[1] < 2:
        raise InvalidInputError("meb_rank2 needs at least two transmit antennas")
    split = _as_real(split, "split")
    if split > 1.0:
        raise InvalidInputError(f"split must lie in [0, 1], got {split!r}")
    p1 = _as_real(p1, "power")
    _, _, v = svd(h11)
    v1 = canonical_beam(v[:, 0], 1.0).v
    v2 = canonical_beam(v[:, 1], 1.0).v
    q = p1 * (split * np.outer(v1, v1.conj()) + (1.0 - split) * np.outer(v2, v2.conj()))
    return TxCovariance(hermitian_part(q), p1)


def sler_floor(h11_norm2, e_bars, p1s):
    """Energy-shortfall floors max(e_bar / P1 - ||H11||_2^2, 0) in the SLER
    denominator (per unit transmit power), elementwise over arrays of
    ||H11||_2^2, e_bar and P1.  Every SLER beam takes its floor from here."""
    return np.maximum(np.asarray(e_bars, dtype=float) / p1s - h11_norm2, 0.0)


def sler_beam(h11, h21, e_bar, p1):
    """Maximum-SLER beamformer via one QR and one small SVD.

    Stack K = [H11; H21; sqrt(floor) I] and factor K = [P_a; P_b] Rbar.  The
    top block of P_a carries the signal part, so the best direction in the
    whitened coordinates is its top right singular vector u, and the beam is
    Rbar^{-1} u renormalized.  When the floor is active, Rbar^{-1} u equals
    P_b u / sqrt(floor), so no triangular solve is needed.
    """
    h11 = as_matrix(h11, "h11")
    h21 = as_matrix(h21, "h21")
    p1 = _as_real(p1, "P1", positive=True)
    e_bar = _as_real(e_bar, "e_bar")
    floors = sler_floor(spectral_norm(h11) ** 2, np.array([e_bar]), p1)
    return canonical_beam(sler_directions(h11, h21, floors)[0], p1)


def sler_directions(h11, h21, floors):
    """`sler_beam`'s unnormalized directions (n, M_t), one per floor of a
    stack (n,), from one stacked QR and one stacked SVD.  The links are one
    pair (M_r, M_t) for every floor or a stack of pairs (n, M_r, M_t)."""
    m_r, m_t = h11.shape[-2:]
    floors = np.asarray(floors, dtype=float)
    eye = np.eye(m_t)
    k = np.empty((floors.size, 2 * m_r + m_t, m_t), dtype=np.complex128)
    k[:, :m_r] = h11
    k[:, m_r : 2 * m_r] = h21
    k[:, 2 * m_r :] = np.sqrt(floors)[:, None, None] * eye
    try:
        q, rbar = qrd(k)
    except RankDeficiencyError:
        # floor = 0 with jointly rank-deficient links; a tiny ridge restores
        # an invertible stack for each target that needs it
        warnings.warn("sler_beam: links share a null direction, using 1e-12 ridge")
        q, rbar = np.empty_like(k), np.empty_like(k[:, :m_t])
        for i, ki in enumerate(k):
            try:
                q[i], rbar[i] = qrd(ki)
            except RankDeficiencyError:
                ki[2 * m_r :] = np.sqrt(1e-12) * eye
                q[i], rbar[i] = qrd(ki)
    _, _, v_alpha = svd(q[:, :m_r])
    u = v_alpha[:, :, :1]
    out = np.empty((floors.size, m_t), dtype=np.complex128)
    on = floors > 0.0
    out[on] = (q[on, 2 * m_r :] @ u[on])[..., 0] / np.sqrt(floors[on])[:, None]
    out[~on] = np.linalg.solve(rbar[~on], u[~on])[..., 0]
    return out


def slnr_beam(h11, h21, p1):
    """Maximum-SLNR beamformer: top generalized eigenvector of
    (H11^H H11, H21^H H21 + (M_r / P1) I)."""
    h11 = as_matrix(h11, "h11")
    h21 = as_matrix(h21, "h21")
    p1 = _as_real(p1, "P1", positive=True)
    return canonical_beam(slnr_directions(h11, h21, np.array([p1]))[0], p1)


def slnr_directions(h11, h21, p1s):
    """`slnr_beam`'s unnormalized directions (n, M_t) for a stack of powers
    (n,): whiten by the Cholesky factor L of the denominator, take the top
    eigenvector y of L^-1 num L^-H, and map it back as L^-H y.  The links
    are one pair (M_r, M_t) for every power or a stack of pairs
    (n, M_r, M_t)."""
    m_r, m_t = h11.shape[-2:]
    num = hermitian_part(h11.conj().swapaxes(-1, -2) @ h11)
    eye = np.eye(m_t)
    den = hermitian_part(h21.conj().swapaxes(-1, -2) @ h21)
    den = den + (m_r / np.asarray(p1s))[:, None, None] * eye
    low = np.linalg.cholesky(den)
    half = np.linalg.solve(low, num)
    _, vecs = np.linalg.eigh(hermitian_part(np.linalg.solve(low, half.conj().swapaxes(-1, -2))))
    return np.linalg.solve(low.conj().swapaxes(-1, -2), vecs[:, :, -1:])[..., 0]
