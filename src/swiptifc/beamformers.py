"""Transmit covariance constructions: water-filling and rank-one beam families.

Strategy identifiers used across the library:

* ``meb``       maximum-energy beam, top right singular vector of the direct link
* ``mlb``       minimum-leakage beam, least right singular vector of the cross link
* ``sler``      signal-to-leakage-and-energy-ratio beam
* ``slnr``      signal-to-leakage-plus-noise-ratio beam
* ``meb_rank2`` two-stream energy beam with a fixed power split

Both ratio beams come from one routine (`_ratio_directions`).

`waterfill` fills the modes of the SVD of the whitened channel
R^{-1/2} H; `iterative_waterfilling` plays the (decode, decode) game in
spectral form, filling the eigenmodes of the whitened Gram H^H R^{-1} H.
Both take their powers from one fill (`_fill`), whose level comes from one
sort-free kernel (`_water_level`): the mode floors arrive sorted, and the
level is the smallest of their prefix levels.  `boundary`'s price rays call
the same kernel with weights, and the public `water_level` checks and sorts
its input and then calls it too.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import stacked_channel
from .exceptions import DegenerateChannelError, InvalidInputError
from .linalg import (
    _RANK_TOL,
    _as_real,
    _float_array,
    as_matrix,
    hermitian_part,
    inv_sqrt_psd,
    spectral_norm,
    svd,
)
from .metrics import TxCovariance, _check_spectra, _rates, canonical_beam, sler_floor

__all__ = [
    "STRATEGIES",
    "check_strategy",
    "water_level",
    "waterfill",
    "IwfResult",
    "iterative_waterfilling",
    "eh_eh_optimal",
    "meb",
    "mlb",
    "meb_rank2",
    "sler_beam",
    "slnr_beam",
]

STRATEGIES = ("meb", "mlb", "sler", "slnr", "meb_rank2")

# rounds of the (decode, decode) water-filling game
_IWF_ROUNDS = 20


def check_strategy(strategy):
    """Validate a strategy id, returning it unchanged."""
    if strategy not in STRATEGIES:
        raise InvalidInputError(
            f"unknown strategy {strategy!r}; valid ids: {', '.join(STRATEGIES)}"
        )
    return strategy


def water_level(floors, p, weights=None):
    """Exact level eta with sum_k w_k (eta - a_k)^+ = P.

    `floors` a_k are finite or +inf (a mode that takes no power), at least
    one of them finite, `weights` w_k positive (default all ones) and P
    positive; floors of shape (n, K) give one level per row.  The floors are
    sorted, and the level is `_water_level`'s smallest prefix level.

    Raises InvalidInputError on any other input.
    """
    p = _as_real(p, "power budget", positive=True)
    a = _float_array(floors)
    if a.ndim not in (1, 2) or a.size == 0:
        raise InvalidInputError(f"floors must be a nonempty 1-D or 2-D array, got {floors!r}")
    if np.isnan(a).any() or (a == -np.inf).any():
        raise InvalidInputError(f"floors must be real or +inf, got {floors!r}")
    if not np.isfinite(a).any(axis=-1).all():
        raise InvalidInputError("every row of floors needs a finite floor")
    if weights is None:
        eta = _water_level(np.sort(a, axis=-1), p)
    else:
        w = _float_array(weights)
        if w.shape != a.shape or not np.all(np.isfinite(w) & (w > 0.0)):
            msg = f"weights must be finite positive, one per floor, got {weights!r}"
            raise InvalidInputError(msg)
        order = a.argsort(axis=-1)
        sorted_a, sorted_w = (np.take_along_axis(x, order, axis=-1) for x in (a, w))
        eta = _water_level(sorted_a, p, sorted_w)
    return float(eta[0]) if a.ndim == 1 else eta[:, 0]


def _water_level(floors, p, weights=None):
    """`water_level` on floors (..., K) already sorted ascending (+inf last),
    unchecked; the levels come back with shape (..., 1).

    The level is the smallest prefix level,
    eta = min_m eta_m, eta_m = (P + sum_{k<=m} w_k a_k) / sum_{k<=m} w_k:
    sum_{k<=m} w_k (eta_m - a_k) = P >= sum_{k<=m} w_k (eta - a_k), so every
    eta_m >= eta, with equality at the active set (Palomar & Fonollosa,
    IEEE TSP 2005).  A prefix through a +inf floor has level +inf.
    """
    if weights is None:
        cw = np.arange(1.0, floors.shape[-1] + 1.0)
        cwa = floors.cumsum(axis=-1)
    else:
        cw = weights.cumsum(axis=-1)
        cwa = (weights * floors).cumsum(axis=-1)
    return ((p + cwa) / cw).min(axis=-1, keepdims=True)


def _mode_floors(gain):
    """Water-filling floors 1 / gain of mode gains (..., K) sorted
    descending, so ascending; modes below 1e-15 of the strongest gain carry
    no power (floor +inf).

    Raises DegenerateChannelError where a row has no gain at all.
    """
    top = gain[..., :1]
    if not top.all():
        raise DegenerateChannelError("channel is numerically zero; no mode to fill")
    return np.divide(1.0, gain, out=np.full_like(gain, np.inf), where=gain > top * 1e-15)


def _fill(gain, p):
    """Water-filling powers (eta - 1/g_k)^+ on mode gains (..., K) sorted
    descending, at P > 0, with the level eta of each row from `_water_level`
    on the `_mode_floors`, which come sorted; the full budget is spent.

    Raises DegenerateChannelError where a row has no gain at all.
    """
    floors = _mode_floors(gain)
    return np.maximum(_water_level(floors, p) - floors, 0.0)


def waterfill(h, r_noise, p):
    """Water-filling covariance for log det(I + H^H R^{-1} H Q), tr(Q) <= P.

    Eigenmodes come from the SVD of the whitened channel R^{-1/2} H = U S V^H;
    powers are (eta - 1/s_i^2)^+ with the exact water level eta of `_fill`.
    The full budget is always spent.
    """
    h = as_matrix(h, "h")
    p = _as_real(p, "power budget")
    m_t = h.shape[1]
    if p == 0.0:
        return TxCovariance(np.zeros((m_t, m_t), dtype=np.complex128), 0.0)
    b = h if r_noise is None else inv_sqrt_psd(as_matrix(r_noise, "r_noise")) @ h
    _, s, vh = np.linalg.svd(b)
    # modes beyond the receive dimension carry no gain
    d = np.zeros(m_t)
    d[: s.size] = s**2
    powers = _fill(d, p)
    return TxCovariance(hermitian_part((vh.conj().T * powers) @ vh), p)


@dataclass
class IwfResult:
    """Outcome of the selfish rate game between the two transmitters."""

    q1: TxCovariance
    q2: TxCovariance
    rates: tuple
    deltas: list
    iterations: int
    converged: bool


def iterative_waterfilling(cs, p):
    """Iterative water-filling for the (decode, decode) operating mode.

    Starting from uniform covariances (P/M_t) I, both transmitters
    simultaneously water-fill against the other's interference of the
    previous round, until the covariance movement ||Q_new - Q||_F of both
    falls below 1e-10 max(P, 1) or 20 rounds (`_IWF_ROUNDS`) pass.

    The game is played in spectral form, both transmitters as one stack.
    Each covariance is held as its factor F = U diag(sqrt(p)); a round
    whitens each direct link H against R = I + (H_cross F)(H_cross F)^H, F
    the other transmitter's factor, by one stacked `solve`, fills the
    eigenmodes of one stacked `eigh` of the whitened Gram H^H R^{-1} H
    (`_fill`), checks the powers (`_check_spectra`) and builds Q = F F^H
    only for the step.  Both final rates come from one stacked pass (the
    interference covariances, one `inv_sqrt_psd` and `_rates`), and the
    returned covariances pass `TxCovariance`'s full checks.  The oracle
    `swiptifc.oracle.iterative_waterfilling_per_user` plays the same game
    through `waterfill`'s inverse square root and SVD.
    """
    p = _as_real(p, "power budget")
    if p == 0.0:
        # nothing to fill: the game settles in one round without a step
        shape = (cs.m_t, cs.m_t)
        q1, q2 = (TxCovariance(np.zeros(shape, dtype=np.complex128), 0.0) for _ in range(2))
        return IwfResult(q1, q2, rates=(0.0, 0.0), deltas=[0.0], iterations=1, converged=True)
    own = np.stack((cs.h11, cs.h22))
    own_h = own.conj().swapaxes(-1, -2)
    cross = np.stack((cs.h12, cs.h21))
    eye = np.eye(cs.m_r, dtype=np.complex128)
    q = np.stack(2 * [(p / cs.m_t) * np.eye(cs.m_t, dtype=np.complex128)])
    factor = np.stack(2 * [np.sqrt(p / cs.m_t) * np.eye(cs.m_t)])
    deltas = []
    converged = False
    for it in range(1, _IWF_ROUNDS + 1):
        # each receiver hears the other transmitter's factor of the last round
        f = cross @ factor[::-1]
        r = eye + f @ f.conj().swapaxes(-1, -2)
        gain, u = np.linalg.eigh(own_h @ np.linalg.solve(r, own))
        # descending, as `_mode_floors` reads them; rounding below 0 is no gain
        gain, u = np.maximum(gain[:, ::-1], 0.0), u[:, :, ::-1]
        powers = _fill(gain, p)
        _check_spectra(powers, powers.sum(axis=-1), p)
        factor = u * np.sqrt(powers)[:, None, :]
        q_new = factor @ factor.conj().swapaxes(-1, -2)
        step = q_new - q
        delta = max(float(np.linalg.norm(step[0])), float(np.linalg.norm(step[1])))
        deltas.append(delta)
        q = q_new
        if delta < 1e-10 * max(p, 1.0):
            converged = True
            break
    # both final rates as one stack: each user's `achievable_rate` against
    # its `interference_cov`, bit for bit
    r = hermitian_part(eye + cross @ q[[1, 0]] @ cross.conj().swapaxes(-1, -2))
    rates = tuple(_rates(inv_sqrt_psd(r) @ own, q).tolist())
    return IwfResult(
        q1=TxCovariance(q[0], p),
        q2=TxCovariance(q[1], p),
        rates=rates,
        deltas=deltas,
        iterations=it,
        converged=converged,
    )


def eh_eh_optimal(cs, p):
    """Optimal covariances for the (harvest, harvest) mode.

    Each transmitter beams all power along the top right singular vector of
    its stacked two-receiver channel; the summed harvested energy
    P (sigma_1^2 + sigma_2^2) of those stacked gains (`_eh_eh_energy`) is
    the maximum over all PSD covariance pairs.  Returns (Q1, Q2,
    total_energy).
    """
    p = _as_real(p, "power budget")
    total, tops = _eh_eh_energy(cs, p)
    q1, q2 = (canonical_beam(v, p).covariance() for v in tops)
    return q1, q2, total


def _eh_eh_energy(cs, p):
    """The (harvest, harvest) optimum's energy P (sigma_1^2 + sigma_2^2) at
    a checked P, from one SVD of each transmitter's stacked channel, and the
    two top right singular vectors.  Returns (total_energy, (v1, v2))."""
    total = 0.0
    tops = []
    for tx in (1, 2):
        _, s, v = svd(stacked_channel(cs, tx))
        tops.append(v[:, 0])
        total += p * float(s[0] ** 2)
    return total, tuple(tops)


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


def _energy_streams(h11, split):
    """`meb_rank2`'s checked split and its two unit streams v1, v2, the top
    two right singular vectors of the direct link."""
    h11 = as_matrix(h11, "h11")
    if h11.shape[1] < 2:
        raise InvalidInputError("meb_rank2 needs at least two transmit antennas")
    split = _as_real(split, "split")
    if split > 1.0:
        raise InvalidInputError(f"split must lie in [0, 1], got {split!r}")
    _, _, v = svd(h11)
    return split, canonical_beam(v[:, 0], 1.0).v, canonical_beam(v[:, 1], 1.0).v


def meb_rank2(h11, p1, split=0.5):
    """Two-stream energy covariance P1 (split v1 v1^H + (1-split) v2 v2^H)."""
    split, v1, v2 = _energy_streams(h11, split)
    p1 = _as_real(p1, "power")
    q = p1 * (split * np.outer(v1, v1.conj()) + (1.0 - split) * np.outer(v2, v2.conj()))
    return TxCovariance(hermitian_part(q), p1)


def sler_beam(h11, h21, e_bar, p1):
    """Maximum-SLER beamformer: the maximizer of ||H11 v||^2 / (||H21 v||^2
    + floor ||v||^2) at the `sler_floor` of (e_bar, P1), from one
    eigendecomposition of H21^H H21 and one of the whitened signal Gram
    (`_ratio_directions`)."""
    h11 = as_matrix(h11, "h11")
    h21 = as_matrix(h21, "h21")
    p1 = _as_real(p1, "P1", positive=True)
    e_bar = _as_real(e_bar, "e_bar")
    floors = sler_floor(spectral_norm(h11) ** 2, np.array([e_bar]), p1)
    return canonical_beam(_ratio_directions(*_ratio_factor(h11, h21), floors)[0], p1)


def slnr_beam(h11, h21, p1):
    """Maximum-SLNR beamformer: top generalized eigenvector of
    (H11^H H11, H21^H H21 + (M_r / P1) I), the ratio beam at the floor
    M_r / P1 (`_ratio_directions`)."""
    h11 = as_matrix(h11, "h11")
    h21 = as_matrix(h21, "h21")
    p1 = _as_real(p1, "P1", positive=True)
    floors = np.array([h11.shape[0] / p1])
    return canonical_beam(_ratio_directions(*_ratio_factor(h11, h21), floors)[0], p1)


def _ratio_factor(h11, h21):
    """The factorization every ratio beam of a link pair reads:
    H21^H H21 = U diag(lam) U^H (lam ascending, clipped at 0) and
    G = U^H H11^H H11 U, for one pair (M_r, M_t) or a stack of pairs.

    Returns (lam, U, G).
    """
    lam, u = np.linalg.eigh(hermitian_part(h21.conj().swapaxes(-1, -2) @ h21))
    hu = h11 @ u
    return np.maximum(lam, 0.0), u, hermitian_part(hu.conj().swapaxes(-1, -2) @ hu)


def _ratio_directions(lam, u, g, floors):
    """Unnormalized maximizers (n, M_t) of ||H11 v||^2 / (||H21 v||^2 +
    f ||v||^2), one per floor f >= 0 of `floors` (n,), from the
    `_ratio_factor` (lam, U, G) of one link pair or of one pair per floor.

    SLER takes f = `sler_floor`, SLNR f = M_r / P1.  With
    D = diag((lam + f)^-1/2) the maximizer is U D y, y the top eigenvector
    of D G D: one stacked `eigh` for all floors.  Where no cross link has a
    null direction (lam <= 1e-12 lam_max), every D is finite; otherwise
    `_null_limit` gives D and y, with the limit direction at a zero floor.
    """
    floors = np.asarray(floors, dtype=float)
    if np.any(lam[..., 0] <= _RANK_TOL * lam[..., -1]):
        d, y = _null_limit(lam, g, floors)
    else:
        d = 1.0 / np.sqrt(lam + floors[:, None])
        y = np.linalg.eigh(d[:, :, None] * g * d[:, None, :])[1]
    return (u @ (d * y[:, :, -1])[:, :, None])[..., 0]


def _null_limit(lam, g, floors):
    """`_ratio_directions`' D and eigenvectors y where a cross link has a
    null space.  A zero floor there takes the limit direction, the top
    eigenvector of G restricted to that null space; where the direct link
    has no gain there either (a null direction both links share) the floor
    becomes a 1e-12 ridge, with a warning."""
    lam = np.broadcast_to(lam, floors.shape + lam.shape[-1:])
    null = lam <= _RANK_TOL * lam[:, -1:]
    limit = (floors == 0.0) & null.any(axis=1)
    with np.errstate(divide="ignore"):
        d = 1.0 / np.sqrt(lam + floors[:, None])
    # the limit rows keep the null space's coordinates alone
    d[limit] = null[limit]
    w, y = np.linalg.eigh(d[:, :, None] * g * d[:, None, :])
    shared = limit & (w[:, -1] <= _RANK_TOL * np.trace(g, axis1=-2, axis2=-1).real)
    if shared.any():
        warnings.warn("ratio beam: links share a null direction, using 1e-12 ridge")
        d[shared] = 1.0 / np.sqrt(lam[shared] + 1e-12)
        gs = np.broadcast_to(g, d.shape[:1] + g.shape[-2:])[shared]
        y[shared] = np.linalg.eigh(d[shared, :, None] * gs * d[shared, None, :])[1]
    return d, y
