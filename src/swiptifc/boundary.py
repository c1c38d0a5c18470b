"""Rate-energy tradeoff boundaries for the mixed (harvest, decode) mode.

Transmitter 1 serves the harvesting receiver with a rank-one (or fixed
rank-two) covariance; transmitter 2 serves the decoding receiver.  For an
energy target E_bar the boundary point solves, in alternation,

* the decoding user's rate maximization under the residual energy floor
  (`solve_p3`), and
* the power backoff P1 = (E_bar - cross energy) / kappa at transmitter 1,

where kappa is the direct-link energy per unit transmit power of the active
beam.  Sweeping E_bar over [0, emax] traces the boundary (Zhang & Ho, "MIMO
broadcasting for simultaneous wireless information and power transfer",
IEEE TWC 2013, define the region).

`solve_p3` prices the floored problem with multipliers (lam, mu) on the
energy floor and the power budget.  With G = H12^H H12 = W diag(c) W^H
factored once per cross link, the price matrix mu I - lam G = mu (I - rho G)
is diagonal in W's basis.  Along the ray rho = lam / mu in [0, 1/cmax) one
SVD fixes the transmit directions, and the level 1/mu that spends the budget
is an exact weighted water-filling level (`beamformers.water_level`), so the
DUAL branch is a single scalar root: energy(rho) = E_floor.  At the cap
P sigma_max(H12)^2 the feasible set is the cross-link beam alone (branch
CAP).  A point whose transmitter 1 settles at P1 = 0 is published as NO_TX.

Every target of a sweep is solved in lockstep (`_solve_many`), as array
passes over per-target P1, iteration and evaluation arrays.  The backoff's
next P1 comes from `_Aitken`: the plain map, or, once two successive
contraction ratios of the map agree, a guarded Aitken step to just short
of the extrapolated fixed point, reverted to the plain step if its
evaluation no longer over-delivers.  Each round of the power backoff and of
the stall rescue's P1 scan and backoff evaluates the (E_bar, P1) pairs of
all targets that take it in one stacked pass (`_evaluate_batch`):
transmitter 1's beam as its factor F (W = F F^H, with one column, or two
for meb_rank2; a sler or slnr beam is one small `eigh` per row against its
context's factorization of H21^H H21), receiver 2's link H22~ whitened
against that beam's interference through a k x k eigendecomposition of
(H21 F)^H H21 F, water-filling, and, for the targets on the DUAL branch,
the roots over rho (`_ratio_roots`).  Each root is a step-for-step port of
scipy's brentq, and each of their rounds is one stacked SVD of the rays all
rows ask for.  `re_boundary_point` and `solve_p3` run the same code with
one target.

The endpoint e_max is the largest target that the backoff's first round,
at P1 = P, reaches (`_emax_many`), so every sweep's top target is reachable;
`time_sharing_curve` joins the points of a meb or mlb sweep at 0 and e_max.

One evaluation of an (E_bar, P1) pair is one `_EVAL` record:
`_solve_p3_batch` fills the floored rate solve (branch, ray evaluations,
multipliers, gap, energy, trace, rate, repair flags), and `_evaluate_batch`
adds transmitter 1's P1, kappa, direct-link energy and clamp.  A target
keeps the record of its latest evaluation; its published point and its
`P3Diagnostics` (`_diagnostics`) are read from that record alone.

Each public entry point builds the strategy context (`_StrategyContext`)
of its channel orientation, strategy, P and split, and passes it down; a
context finds its e_max once.  Nothing is kept between calls.

One lockstep may span several contexts that share strategy, P and link
shape (`_solve_many`), such as both orientations of one channel, or one
channel's meb_rank2 contexts at different splits: every row of a round
carries its context's index and reads that context's links and constants,
the fixed beam included, stacked once per lockstep (`_stack`).  Solving one
context is the one-context case of the same code.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .beamformers import (
    _energy_streams,
    _mode_floors,
    _ratio_directions,
    _ratio_factor,
    check_strategy,
    meb,
    mlb,
    water_level,
    waterfill_stack,
)
from .channel import _is_int, channel_digest
from .exceptions import (
    InfeasibleTargetError,
    InvalidInputError,
    InvariantViolationError,
    SwiptError,
)
from .linalg import _as_real, _as_reals, as_matrix, hermitian_eig, hermitian_part, spectral_norm
from .metrics import (
    TxCovariance,
    _beam_gain,
    _rates,
    _unit_rows,
    canonical_beam,
    check_covariances,
    check_unit_rows,
    sler_floor,
)

__all__ = [
    "P3Diagnostics",
    "REPoint",
    "REBoundary",
    "emax",
    "solve_p3",
    "re_boundary_point",
    "re_sweep",
    "time_sharing_curve",
]

# outer loop defaults
_N_MAX = 20
_P1_TOL = 1e-8
_RESCUE_SCAN = 33

# the backoff's Aitken step: two successive contraction ratios within this
# relative spread and below this ceiling, and the margin it stops short by
_AITKEN_AGREE = 0.02
_AITKEN_MAX_RATIO = 0.95
_AITKEN_MARGIN = 0.03

# adaptive beams' e_max search: scan points, then at most this many steps
_EMAX_SCAN = 17
_EMAX_STEPS = 100

# accepted relative overshoot of an energy target before declaring infeasibility
_FEAS_SLACK = 1e-9

# top of the price-ray interval: rho <= (1 - margin) / cmax keeps 1 - rho c
# resolved in floating point
_RHO_MARGIN = 1e-12

# the ratio root stops as scipy.optimize.brentq does at these settings
_XTOL = 1e-18
_RTOL = 8.9e-16
_MAXITER = 200


@dataclass
class P3Diagnostics:
    """How a single energy-floored rate maximization was resolved."""

    branch: str                # "WF", "DUAL" or "CAP"
    iterations: int            # ray evaluations (one SVD each)
    lam: float | None
    mu: float | None
    gap: float                 # worst relative residual after repair
    energy: float
    trace: float
    rate_bits: float
    repaired: bool = False     # energy shortfall mixed toward the cross-link beam
    rescaled: bool = False     # trace above P scaled back to P


@dataclass
class REPoint:
    """One boundary point: targeted energy, achieved pair, and how it was hit."""

    e_bar: float
    rate_bits: float
    energy: float
    p1: float
    branch: str                # NO_TX | WF | DUAL | CAP | TS
    iterations: int
    lam: float | None = None
    mu: float | None = None
    clamped: bool = False
    carried: bool = False      # copied from a higher target by re_sweep
    p3: P3Diagnostics | None = None  # the floored rate solve behind the point


@dataclass
class REBoundary:
    """A swept tradeoff curve, sorted by energy target.

    Invariants (validate): e_bar strictly increasing, rate non-increasing
    within 1e-6, achieved energy at least e_bar - 1e-6 * max(1, e_bar).
    Failed grid points are listed in `gaps` as (index, e_bar, reason).
    """

    points: list
    strategy: str
    channel_digest: str
    e_max: float
    seed: int | None = None
    gaps: list = field(default_factory=list)

    def validate(self):
        prev = None
        for pt in self.points:
            if pt.rate_bits < -1e-12 or pt.energy < -1e-9:
                raise InvariantViolationError(
                    f"negative rate or energy at e_bar={pt.e_bar!r}"
                )
            if pt.energy < pt.e_bar - 1e-6 * max(1.0, pt.e_bar):
                raise InvariantViolationError(
                    f"energy {pt.energy!r} misses target {pt.e_bar!r}"
                )
            if prev is not None:
                if pt.e_bar <= prev.e_bar:
                    raise InvariantViolationError("e_bar grid is not strictly increasing")
                if pt.rate_bits > prev.rate_bits + 1e-6:
                    raise InvariantViolationError(
                        f"rate increases along the curve at e_bar={pt.e_bar!r} "
                        f"({prev.rate_bits!r} -> {pt.rate_bits!r})"
                    )
            prev = pt
        return self


# ---------------------------------------------------------------------------
# ratio root


def _brentq_steps(xpre, xcur):
    """scipy.optimize.brentq on [xpre, xcur] at xtol 1e-18, rtol 8.9e-16 and
    200 iterations, step for step, as a generator: it yields each abscissa,
    is sent f there, and returns the root."""
    fpre = yield xpre
    fcur = yield xcur
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise RuntimeError(f"ratio root failed to converge after {_MAXITER} iterations")


def _reaches(e_bar, e_max):
    """Whether energy target `e_bar` lies within the accepted overshoot of
    the largest deliverable energy `e_max`: the one reach test."""
    return e_bar <= e_max * (1.0 + _FEAS_SLACK) + 1e-12


# ---------------------------------------------------------------------------
# floored rate problem: maximize log det(I + Ht Q Ht^H) s.t. the energy floor


def _cross_factor(h12):
    """G = H12^H H12 = W diag(c) W^H of a cross link, with c descending.

    Returns (c, W, cmax, v12), v12 the unit beam along G's top eigenvector.
    """
    c, w = hermitian_eig(h12.conj().T @ h12)
    c = np.maximum(c, 0.0)
    return c, w, float(c[0]), canonical_beam(w[:, 0], 1.0).v


def _cross_energy(c, w, q):
    """tr(H12 Q H12^H) of each Q of a stack, through the factorization of G
    (one (c, W) for the stack, or one per Q)."""
    wq = w.conj().swapaxes(-1, -2) @ q @ w
    return np.sum(c * np.diagonal(wq, axis1=-2, axis2=-1).real, axis=-1)


def _outer(v):
    """v v^H of a vector (m,), or of each row of a stack (n, m)."""
    return v[..., :, None] * v.conj()[..., None, :]


class _Rays:
    """Priced maximizers on the rays mu (I - rho G) at the level spending P,
    one per row of a stack (with one c for the stack, or one per row).

    For own link F = Ht W (in W's basis) and ratio rho, D = diag(d) =
    diag((1 - rho c)^{-1/2}); one SVD of F D gives gains sig_k and
    directions V, neither depending on mu.  With a_k = 1/sig_k^2 the trace is
    sum_k w_k (eta - a_k)^+ and the energy sum_k e_k (eta - a_k)^+, where
    w_k = sum_i |V_ik|^2 d_i^2 and e_k = sum_i |V_ik|^2 c_i d_i^2, so the
    level eta = 1/mu is exact.  The covariance, in W's basis, is
    D V diag(powers) V^H D.
    """

    def __init__(self, f, c, rho, p):
        d2 = 1.0 / (1.0 - rho[:, None] * c)
        self.d = np.sqrt(d2)
        _, sig, self.vh = np.linalg.svd(f * self.d[:, None, :], full_matrices=False)
        floors = _mode_floors(sig**2)
        mag = np.abs(self.vh) ** 2
        w = (mag @ d2[:, :, None])[..., 0]
        self.eta = water_level(floors, p, w)
        self.powers = np.maximum(self.eta[:, None] - floors, 0.0)
        row = self.powers[:, None, :]
        self.energy = (row @ (mag @ (c * d2)[:, :, None]))[:, 0, 0]
        self.trace = (row @ w[:, :, None])[:, 0, 0]


def _ray_covariances(w, d, vh, powers):
    """Transmit covariances of stacked ray points, in the antenna basis (each
    row with its own W)."""
    core = (vh.conj().swapaxes(-1, -2) * powers[:, None, :]) @ vh
    mid = (d[:, :, None] * core) * d[:, None, :]
    return hermitian_part(w @ mid @ w.conj().swapaxes(-1, -2))


def _repair(q, trace, energy, e_req, p, cap, v12):
    """Scale each covariance into the power ball, then mix it toward the
    cross-link beam v12 (one for the stack, or one per row) until its energy
    floor holds.

    Returns (q, energy, trace, rescaled, repaired): `rescaled` marks a trace
    above P scaled back to P, `repaired` an energy shortfall that was mixed.
    """
    rescaled = trace > p
    scale = np.where(rescaled, p / trace, 1.0)
    q = q * scale[:, None, None]
    energy = energy * scale
    trace = np.where(rescaled, p, trace)
    shortfall = e_req - energy
    repaired = shortfall > 1e-12 * np.maximum(1.0, e_req)
    if repaired.any():
        denom = cap - energy
        with np.errstate(divide="ignore", invalid="ignore"):
            wmix = np.where(denom <= 0.0, 1.0, np.minimum(shortfall / denom, 1.0))
        wmix = np.where(repaired, wmix, 0.0)
        qb = p * _outer(v12)
        q = np.where(
            repaired[:, None, None], (1.0 - wmix)[:, None, None] * q + wmix[:, None, None] * qb, q
        )
        trace = np.where(repaired, (1.0 - wmix) * trace + wmix * p, trace)
        energy = np.where(repaired, (1.0 - wmix) * energy + wmix * cap, energy)
    return q, energy, trace, rescaled, repaired


def _ratio_roots(f, c, e_req, e_wf, rho_hi, p):
    """Roots of energy(rho) = e_req[i] on the price rays of a stack of targets.

    Row i has own link f[i] = Ht W, cross-link gains c[i] and top ratio
    rho_hi[i].  At rho = 0 the ray point is water-filling, whose energy
    e_wf[i] is short of the target; energy grows toward P cmax as rho
    approaches 1/cmax.  Each row runs its own `_brentq_steps`; each round
    evaluates the rays that every row asks for as one `_Rays` stack.
    Returns the roots, each row's ray evaluations, and the fields of the ray
    at each root (eta, d, vh, powers, trace, energy).
    """
    e_req, e_wf = e_req.tolist(), e_wf.tolist()
    n = len(e_req)
    rays = []                       # the `_Rays` of every round
    energy = []                     # their energies, flat
    known = [{} for _ in range(n)]  # per row: rho -> flat index of its ray
    steps = [None] * n              # per row: its brentq, once started
    root = [None] * n
    ask = rho_hi.tolist()           # per row: the rho of the ray it waits for

    def short(i, x):
        return (e_wf[i] if x == 0.0 else energy[known[i][x]]) - e_req[i]

    todo = list(range(n))
    while todo:
        rays.append(_Rays(f[todo], c[todo], np.array([ask[i] for i in todo]), p))
        for i, e in zip(todo, rays[-1].energy.tolist()):
            known[i][ask[i]] = len(energy)
            energy.append(e)
        waiting = []
        for i in todo:
            if root[i] is not None:
                continue
            try:
                if steps[i] is not None:
                    x = steps[i].send(short(i, ask[i]))
                elif short(i, ask[i]) < 0.0:
                    # no gain along the cross-link beam: repair closes the gap
                    root[i] = ask[i]
                    continue
                else:
                    steps[i] = _brentq_steps(0.0, ask[i])
                    x = next(steps[i])
                while x == 0.0 or x in known[i]:
                    x = steps[i].send(short(i, x))
            except StopIteration as stop:
                root[i] = x = stop.value
                # a target within rounding of e_wf can return the endpoint 0
                if x in known[i]:
                    continue
            ask[i] = x
            waiting.append(i)
        todo = waiting
    at = [known[i][root[i]] for i in range(n)]
    picked = {
        name: np.concatenate([getattr(r, name) for r in rays])[at]
        for name in ("eta", "d", "vh", "powers", "trace", "energy")
    }
    return np.array(root), np.array([len(k) for k in known]), SimpleNamespace(**picked)


# one evaluation of an (e_bar, P1) pair (see the module docstring): `branch`
# is the floored solve's WF, DUAL or CAP, lam and mu are nan where the branch
# reports none, e2 is receiver 2's energy, e11 = kappa * P1 the direct-link
# energy, and `clamped` marks a floor left for transmitter 2 out of its reach
_EVAL = np.dtype(
    [(name, float) for name in ("p1", "kappa", "e11", "lam", "mu", "gap", "e2", "trace", "rate")]
    + [(name, bool) for name in ("clamped", "repaired", "rescaled")]
    + [("branch", "U4"), ("evals", int)]
)


# the `_EVAL` fields of a `P3Diagnostics`, in `_diagnostics`' order
_P3_FIELDS = ("branch", "evals", "lam", "mu", "gap", "e2", "trace", "rate", "repaired", "rescaled")


def _diagnostics(branch, evals, lam, mu, gap, e2, trace, rate, repaired, rescaled):
    """The `P3Diagnostics` of one `_EVAL` record, from its `_P3_FIELDS` as
    Python values."""
    return P3Diagnostics(
        branch=branch,
        iterations=evals,
        lam=None if math.isnan(lam) else lam,
        mu=None if math.isnan(mu) else mu,
        gap=gap,
        energy=e2,
        trace=trace,
        rate_bits=rate,
        repaired=repaired,
        rescaled=rescaled,
    )


def _columns(rec, names):
    """The fields `names` of a stack of `_EVAL` records, as one tuple of
    Python values per record."""
    return zip(*(rec[name].tolist() for name in names))


def _solve_p3_batch(ht, rows, e_req, p, cross):
    """`solve_p3` for a stack of targets.

    `ht` holds distinct own links (u, M_r, M_t), `rows` maps each target to
    its link, `e_req` holds floors already clipped to [0, P cmax], and
    `cross` holds each link's cross-link `_cross_factor`, stacked: c (u, M_t),
    W (u, M_t, M_t), cmax (u,) and v12 (u, M_t).  Water-filling runs once per
    link; the DUAL targets share one `_ratio_roots` call.  Returns the
    validated covariances (n, M_t, M_t) and each target's `_EVAL` record,
    with the floored-solve fields filled.
    """
    c, w, cmax, v12 = cross
    n, m_t = e_req.size, w.shape[-1]
    cap = p * cmax[rows]
    q = np.empty((n, m_t, m_t), dtype=np.complex128)
    rec = np.zeros(n, _EVAL)
    rec["lam"] = rec["mu"] = np.nan
    energy, trace = rec["e2"], rec["trace"]  # views: writes land in rec

    # at the cap the feasible set collapses onto the cross-link beam; the
    # dual pair diverges there, so return the beam directly (branch CAP)
    at_cap = e_req >= cap * (1.0 - 1e-10)
    if at_cap.any():
        q[at_cap] = p * _outer(v12[rows[at_cap]])
        energy[at_cap] = cap[at_cap]
        trace[at_cap] = p

    links = np.unique(rows[~at_cap])
    e_wf = np.full(ht.shape[0], np.nan)
    if links.size:
        q_wf = waterfill_stack(ht[links], p)
        # every covariance built here passes TxCovariance's checks, each once
        check_covariances(q_wf, p)
        e_wf[links] = _cross_energy(c[links], w[links], q_wf)
    slot = np.zeros(ht.shape[0], dtype=int)
    slot[links] = np.arange(links.size)
    wf = ~at_cap & (e_req <= e_wf[rows])
    if wf.any():
        q[wf] = q_wf[slot[rows[wf]]]
        energy[wf] = e_wf[rows[wf]]
        trace[wf] = np.trace(q[wf], axis1=-2, axis2=-1).real

    idx = np.flatnonzero(~at_cap & ~wf)
    if idx.size:
        link = rows[idx]
        rho, rec["evals"][idx], ray = _ratio_roots(
            ht[link] @ w[link],
            c[link],
            e_req[idx],
            e_wf[link],
            (1.0 - _RHO_MARGIN) / cmax[link],
            p,
        )
        qd, ed, td, rec["rescaled"][idx], rec["repaired"][idx] = _repair(
            _ray_covariances(w[link], ray.d, ray.vh, ray.powers),
            ray.trace,
            ray.energy,
            e_req[idx],
            p,
            cap[idx],
            v12[link],
        )
        q[idx], energy[idx], trace[idx] = qd, ed, td
        rec["gap"][idx] = np.maximum(
            np.maximum(e_req[idx] - ed, 0.0) / np.maximum(1.0, e_req[idx]),
            np.maximum(td - p, 0.0) / p,
        )
        rec["lam"][idx] = rho / ray.eta
        rec["mu"][idx] = 1.0 / ray.eta
    rec["branch"] = np.where(at_cap, "CAP", np.where(wf, "WF", "DUAL"))
    if not wf.all():
        built = hermitian_part(q[~wf])
        check_covariances(built, p)
        q[~wf] = built
    rec["rate"] = _rates(ht[rows], q)
    return q, rec


def solve_p3(h22_tilde, h12, e_target, p):
    """Rate maximization for the decoding user under an energy floor.

    maximize log det(I + Ht Q Ht^H) s.t. tr(H12 Q H12^H) >= e_target,
    tr(Q) <= P, Q PSD.  If water-filling alone meets the floor it is
    returned (branch WF); a target at the cap P sigma_max(H12)^2 gets the
    cross-link beam at full power (branch CAP, no multipliers); otherwise one
    root over the ratio rho = lam / mu, with the water level 1/mu exact at
    each rho, resolves the two dual multipliers (branch DUAL), reported as
    lam = rho / eta and mu = 1 / eta.
    A trace above P by rounding is scaled back (`rescaled`), and a residual
    energy shortfall is repaired by mixing toward the cross-link beam
    covariance (`repaired`).  `P3Diagnostics.iterations` counts the SVDs
    spent.

    Returns (TxCovariance, P3Diagnostics).
    """
    p = _as_real(p, "power budget", positive=True)
    e_target = _as_real(e_target, "e_target")
    ht = as_matrix(h22_tilde, "h22_tilde")
    h12 = as_matrix(h12, "h12")
    if h12.shape[1] != ht.shape[1]:
        raise InvalidInputError(
            f"transmit dims differ: h22_tilde {ht.shape}, h12 {h12.shape}"
        )
    cross = _cross_factor(h12)
    cap = p * cross[2]
    if not _reaches(e_target, cap):
        raise InfeasibleTargetError(
            f"energy target {e_target!r} exceeds the deliverable maximum {cap!r}",
            max_attainable=cap,
        )
    e_req = min(e_target, cap)
    q, rec = _solve_p3_batch(
        ht[None], np.zeros(1, dtype=int), np.array([e_req]), p, [np.array([a]) for a in cross]
    )
    (fields,) = _columns(rec, _P3_FIELDS)
    return TxCovariance(q[0], p), _diagnostics(*fields)


# ---------------------------------------------------------------------------
# strategy plumbing for transmitter 1


class _StrategyContext:
    """Per-channel quantities plus the beam family of one strategy.

    `consts` holds what an evaluation reads per row (see `_stack`); e_max is
    found once, on first use.
    """

    def __init__(self, cs, strategy, p, split=0.5):
        check_strategy(strategy)
        self.cs = cs
        self.strategy = strategy
        self.p = _as_real(p, "power budget", positive=True)
        c, w, cmax, v12 = _cross_factor(cs.h12)
        self.consts = dict(h11=cs.h11, h21=cs.h21, h22=cs.h22, c=c, w=w, cmax=cmax, v12=v12)
        f_fixed = None
        if strategy == "meb":
            f_fixed = meb(cs.h11, 1.0).v[:, None]
        elif strategy == "mlb":
            f_fixed = mlb(cs.h21, 1.0).v[:, None]
        elif strategy == "meb_rank2":
            split, v1, v2 = _energy_streams(cs.h11, split)
            f_fixed = np.stack((math.sqrt(split) * v1, math.sqrt(1.0 - split) * v2), axis=1)
        self.fixed = f_fixed is not None
        if self.fixed:
            self.consts.update(f_fixed=f_fixed, kappa_fixed=float(_beam_gain(cs.h11, f_fixed)))
        else:
            # vanishing power: both adaptive beams collapse to the pure
            # energy beam (their denominators are dominated by the floor)
            self.consts["meb_v"] = meb(cs.h11, 1.0).v
            self.consts["h11_norm2"] = spectral_norm(cs.h11) ** 2
            # every sler or slnr beam of the context reads this one factorization
            lam, u, g = _ratio_factor(cs.h11, cs.h21)
            self.consts.update(lam=lam, u=u, g=g)
        self._emax = None

    def emax(self):
        """Largest reachable energy target for this strategy at full power."""
        return _emax_many([self])[0]


def _stack(ctxs):
    """The `consts` of the strategy contexts of one lockstep, each stacked
    along a leading context axis; an evaluation row reads its own context's
    entries by index.  The contexts share strategy, P and link shape; a
    fixed beam's factor F (`f_fixed`, M_t x k with k = 1, or 2 for
    meb_rank2) and its gain `kappa_fixed` are per-context entries, so they
    may differ in split.
    """
    first = ctxs[0]
    return SimpleNamespace(
        strategy=first.strategy,
        p=first.p,
        fixed=first.fixed,
        **{k: np.stack([ctx.consts[k] for ctx in ctxs]) for k in first.consts},
    )


def _unit_covs(st, ci, e_bars, p1s):
    """Factors F (n, M_t, k) of transmitter 1's unit-trace covariances
    W = F F^H at each (e_bar, P1) pair, row i in context ci[i] of the stack
    `st`, and their direct-link energy gains kappa = ||H11 F||_F^2.

    An adaptive beam is its direction normalized row by row, with no phase
    fixed: W = v v^H does not depend on it.  Both ratio beams read their
    context's factorization of H21^H H21 (`_ratio_factor`), so each row
    costs one small `eigh`: SLER at the `sler_floor` of its pair, SLNR at
    the floor M_r / P1.
    """
    if st.fixed:
        return st.f_fixed[ci], st.kappa_fixed[ci]
    v = np.empty((p1s.size, st.h11.shape[-1]), dtype=np.complex128)
    low = p1s <= 1e-12 * st.p
    if low.any():
        v[low] = st.meb_v[ci[low]]
    hi = ~low
    if hi.any():
        c = ci[hi]
        if st.strategy == "sler":
            floors = sler_floor(st.h11_norm2[c], e_bars[hi], p1s[hi])
        else:
            floors = st.h11.shape[-2] / p1s[hi]
        v[hi] = _unit_rows(_ratio_directions(st.lam[c], st.u[c], st.g[c], floors))
        check_unit_rows(v[hi])
    f = v[:, :, None]
    return f, _beam_gain(st.h11[ci], f)


def _whitened_links(st, ci, f, p1s):
    """H22~ = (I + U U^H)^{-1/2} H22 for each stacked pair, row i in context
    ci[i] of the stack `st`, with U = sqrt(P1) H21 F and F the beam factor.

    With U^H U = E diag(mu) E^H (k x k) and s = sqrt(1 + mu), the inverse
    square root is I - U E diag(g) E^H U^H, g = 1 / (s (1 + s)): no M_r x M_r
    factorization.  At P1 = 0, U = 0 and H22 comes back as it is; as mu -> 0,
    g -> 1/2, so a beam in H21's null space stays finite.
    """
    h22 = st.h22[ci]
    u = np.sqrt(p1s)[:, None, None] * (st.h21[ci] @ f)
    mu, e = np.linalg.eigh(u.conj().swapaxes(-1, -2) @ u)
    s = np.sqrt(1.0 + mu)
    ue = u @ e
    g = 1.0 / (s * (1.0 + s))
    return h22 - (ue * g[:, None, :]) @ (ue.conj().swapaxes(-1, -2) @ h22)


def _surplus(st, ci, e_bars):
    """g(E) = P kappa(E, P) + P cmax - E at each target (row i in context
    ci[i] of `st`): >= 0 where the full-power round leaves a floor in reach."""
    _, kappa = _unit_covs(st, ci, e_bars, np.full(e_bars.size, st.p))
    return st.p * kappa + st.p * st.cmax[ci] - e_bars


def _emax_many(ctxs):
    """`emax` of each strategy context; the contexts share strategy, P and
    link shape (see `_stack`).

    A fixed beam reaches P (kappa + cmax), cmax = sigma_max(H12)^2.  An
    adaptive beam's e_max is the largest E with `_surplus` g(E) >= 0, where
    the backoff's first round (P1 = P) meets the target.  As kappa <=
    ||H11||^2, g >= 0 at P cmax and g <= 0 at P (||H11||^2 + cmax): one
    stacked `_EMAX_SCAN`-point scan finds each context's last point with
    g >= 0, and stacked Illinois steps close the bracket above it to 1e-12
    relative and return its end with g >= 0.
    """
    todo = [ctx for ctx in dict.fromkeys(ctxs) if ctx._emax is None]
    if todo:
        st = _stack(todo)
        found = st.p * (st.kappa_fixed + st.cmax) if st.fixed else _reach_top(st)
        for ctx, ek in zip(todo, found.tolist()):
            ctx._emax = ek
    return [ctx._emax for ctx in ctxs]


def _reach_top(st):
    """The largest E with `_surplus` g(E) >= 0 of each context of the stack
    `st` (see `_emax_many`)."""
    n, top = st.cmax.size, _EMAX_SCAN - 1
    lo, hi = st.p * st.cmax, st.p * (st.h11_norm2 + st.cmax)
    scan = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _EMAX_SCAN)
    g = _surplus(st, np.repeat(np.arange(n), _EMAX_SCAN), scan.ravel()).reshape(n, -1)
    # g(lo) = P kappa >= 0, so every row has a last scan point with g >= 0
    j = top - np.argmax(g[:, ::-1] >= 0.0, axis=1)
    rows = np.arange(n)
    a, ga = scan[rows, j], g[rows, j]
    k = np.minimum(j + 1, top)
    b, gb = scan[rows, k], g[rows, k]
    kept = np.zeros(n, dtype=int)  # +1: a moved last, -1: b moved last
    live = np.flatnonzero(j < top)
    for _ in range(_EMAX_STEPS):
        live = live[b[live] - a[live] > 1e-12 * b[live]]
        if not live.size:
            break
        al, bl, gal, gbl = a[live], b[live], ga[live], gb[live]
        # regula falsi, kept off each end by less than half the tolerance
        edge = 0.4e-12 * bl
        x = np.clip(bl - gbl * (bl - al) / (gbl - gal), al + edge, bl - edge)
        gx = _surplus(st, live, x)
        up = gx >= 0.0
        # Illinois: an end kept twice in a row has its stored value halved
        gb[live[up & (kept[live] == 1)]] *= 0.5
        ga[live[~up & (kept[live] == -1)]] *= 0.5
        a[live[up]], ga[live[up]] = x[up], gx[up]
        b[live[~up]], gb[live[~up]] = x[~up], gx[~up]
        kept[live] = np.where(up, 1, -1)
    return a


def emax(cs, strategy, p, split=0.5):
    """Right boundary endpoint: the largest energy any sweep can target."""
    return _StrategyContext(cs, strategy, p, split).emax()


def _evaluate_batch(st, ci, e_bars, p1s):
    """Evaluate every (e_bar, P1) pair in one stacked pass: transmitter 1's
    beam, the whitened link H22~ it leaves for receiver 2, and the floored
    rate solve at the energy still missing.  Row i belongs to context ci[i]
    of the stack `st` (see `_stack`) and reads that context's links.
    Returns receiver 2's covariances and the `_EVAL` record of each row."""
    if st.strategy == "sler":
        ci_u, p1_u, rows, e_u = ci, p1s, np.arange(p1s.size), e_bars
    else:
        # the beam and H22~ depend on the context and P1 alone: evaluate each
        # distinct pair once (complex keys P1 + i ctx sort by P1, then context)
        keys, rows = np.unique(p1s + 1j * ci, return_inverse=True)
        ci_u, p1_u, e_u = keys.imag.astype(int), keys.real, None
    f, kappa_u = _unit_covs(st, ci_u, e_u, p1_u)
    ht = _whitened_links(st, ci_u, f, p1_u)
    kappa = kappa_u[rows]
    e11 = kappa * p1s
    cap = st.p * st.cmax[ci]
    e_need = e_bars - e11
    clamped = e_need > cap * (1.0 + _FEAS_SLACK)
    e_need = np.minimum(np.maximum(e_need, 0.0), cap)
    cross = [st.c[ci_u], st.w[ci_u], st.cmax[ci_u], st.v12[ci_u]]
    q, rec = _solve_p3_batch(ht, rows, e_need, st.p, cross)
    rec["p1"], rec["kappa"], rec["e11"], rec["clamped"] = p1s, kappa, e11, clamped
    return q, rec


class _Aitken:
    """Each target's next P1 in the power backoff, with a guarded Aitken step.

    The plain map x -> T(x) = (E_bar - e2) / kappa, clipped to [0, P] with
    every value at or below zero set to exactly 0.0 (so never -0.0), moves
    a target whose evaluation over-delivers with kappa > 0; any other target
    stays at its P1.  It converges linearly, at a ratio that settles early.
    Once two successive contraction ratios r = dT / dx of a target's plain
    steps agree within 2%, with 0 < r < 0.95, its next evaluation goes to
    x* + 0.03 (T - x*), where x* = T + r / (1 - r) (T - x) extrapolates the
    fixed point: short of it, on the over-delivering side.  An accelerated
    evaluation that does not over-deliver is reverted: the plain step T(x)
    it replaced is evaluated next, and two more plain steps must agree
    before the next Aitken step.  The rescue's backoff starts a new state.
    """

    def __init__(self, n):
        self.x = np.full(n, np.nan)    # each target's last plain point x
        self.t = np.full(n, np.nan)    # its plain step T(x)
        self.r = np.full(n, np.nan)    # the contraction ratio that led there
        self.fast = np.zeros(n, dtype=bool)  # the pending evaluation is an Aitken step

    def next_p1(self, ks, e_eff, ev, p, tol, stop):
        """Targets ks, evaluated in `ev`: their next P1 and whether each has
        settled, that is, moved by at most `tol` on a plain step or reached
        `stop`.  A settled target's next P1 is its plain step."""
        x = ev["p1"]
        over = (ev["e11"] + ev["e2"] > e_eff) & (ev["kappa"] > 0.0)
        t = (e_eff - ev["e2"]) / np.where(over, ev["kappa"], 1.0)
        t = np.where(0.0 >= t, 0.0, t)
        t = np.where(over, np.where(p < t, p, t), x)
        reverted = self.fast[ks] & ~over
        plain = np.where(reverted, self.t[ks], t)
        settled = (~reverted & (np.abs(t - x) <= tol)) | stop
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (t - self.t[ks]) / (x - self.x[ks])
            star = t + r / (1.0 - r) * (t - x)
        r_prev = self.r[ks]
        step = star + _AITKEN_MARGIN * (t - star)
        fast = (
            ~reverted
            & ~settled
            & (np.abs(r - r_prev) <= _AITKEN_AGREE * np.abs(r_prev))
            & (r > 0.0)
            & (r < _AITKEN_MAX_RATIO)
            & (step > 0.0)
            & (step <= p)
        )
        kept = ks[~reverted]
        self.x[kept], self.t[kept], self.r[kept] = x[~reverted], t[~reverted], r[~reverted]
        self.r[ks[reverted]] = np.nan
        self.fast[ks] = fast
        return np.where(fast, step, plain), settled


def _solve_many(jobs):
    """Boundary points of several strategy contexts, solved together.

    `jobs` lists (context, e_bars) pairs; the contexts share strategy, P and
    link shape (see `_stack`).  Each distinct (context, e_bar) pair is one target,
    solved once.  Each step evaluates the (e_bar, P1) pairs of every target
    that takes it as one stacked batch (`_evaluate_batch`):

    * the power backoff: from P1 = P, alternate the floored rate solve with
      P1 = (E_bar - cross energy) / kappa until P1 moves less than
      1e-8 * max(P, 1) or 20 rounds pass; a target whose P1 settled away
      from its last evaluation is evaluated there in one more round.  The
      next P1 may be a guarded Aitken step (`_Aitken`); a reverted step
      counts as a round;
    * the stall rescue, for adaptive beams only.  An adaptive beam stops
      tilting toward the energy subspace once its own power covers the
      harvesting floor, so delivered energy is not monotone in P1: it can
      dip below the target at full power while an interior P1 still reaches
      it.  Each target still short scans `_RESCUE_SCAN` P1 values in one
      batch, keeps its first best-rate candidate that reaches the target,
      and backs off from there, with the same Aitken steps, while the
      target stays reached.

    A point whose settled P1 is exactly 0.0, which the backoff and the scan
    both reach, is published as NO_TX.  If a batch raises a SwiptError, its
    rows are evaluated one at a time, and each target whose row raises takes
    the error.  Returns a dict that maps each pair to its REPoint or to the
    SwiptError that stopped it.
    """
    todo = list(dict.fromkeys((ctx, float(e)) for ctx, e_bars in jobs for e in e_bars))
    if not todo:
        return {}
    ctxs = list(dict.fromkeys(ctx for ctx, _ in todo))
    ems = _emax_many(ctxs)
    ci = np.array([ctxs.index(ctx) for ctx, _ in todo])
    out = [None] * len(todo)
    for k, (ctx, e) in enumerate(todo):
        em = ems[ci[k]]
        if not _reaches(e, em):
            out[k] = InfeasibleTargetError(
                f"energy target {e!r} exceeds e_max {em!r} for strategy {ctx.strategy!r}",
                max_attainable=em,
            )
    failed = np.array([o is not None for o in out])
    targets = np.array([e for _, e in todo])
    e_eff = np.minimum(targets, np.array(ems)[ci])
    tol_e = 1e-9 * np.maximum(1.0, e_eff)
    st = _stack(ctxs)
    p = st.p
    tol_p1 = _P1_TOL * max(p, 1.0)

    def evaluate(ks, p1s):
        """Target ks[i] evaluated at P1 p1s[i]: returns the targets and their
        `_EVAL` records, without the rows of targets that took an error."""
        try:
            _, rec = _evaluate_batch(st, ci[ks], e_eff[ks], p1s)
        except SwiptError:
            rec = np.zeros(ks.size, _EVAL)
            for i, k in enumerate(ks.tolist()):
                one = slice(k, k + 1)
                try:
                    rec[i] = _evaluate_batch(st, ci[one], e_eff[one], p1s[i : i + 1])[1][0]
                except SwiptError as exc:
                    if not failed[k]:
                        out[k], failed[k] = exc, True
        ok = ~failed[ks]
        return ks[ok], rec[ok]

    latest = np.zeros(len(todo), _EVAL)
    iters = np.zeros(len(todo), dtype=int)
    p1 = np.full(len(todo), p)
    settled = np.zeros(len(todo), dtype=bool)
    steps = _Aitken(len(todo))
    live = np.flatnonzero(~failed)
    while live.size:
        live, ev = evaluate(live, p1[live])
        latest[live] = ev
        # the targets evaluated at their settled P1 are done
        back = ~settled[live]
        live, ev = live[back], ev[back]
        iters[live] += 1
        p1[live], settled[live] = steps.next_p1(
            live, e_eff[live], ev, p, tol_p1, iters[live] == _N_MAX
        )
        live = live[p1[live] != ev["p1"]]

    achieved = latest["e11"] + latest["e2"]
    short = ~failed & (achieved < e_eff - tol_e)
    if not st.fixed and short.any():
        live = np.flatnonzero(short)
        scan = np.linspace(0.0, p, _RESCUE_SCAN)
        live, ev = evaluate(np.repeat(live, scan.size), np.tile(scan, live.size))
        live, ev = live[:: scan.size], ev.reshape(-1, scan.size)
        got = ev["e11"] + ev["e2"]
        fit = got >= (e_eff[live] - tol_e[live])[:, None]
        found = fit.any(axis=1)
        seen = got.max(axis=1)
        achieved[live] = np.where(seen > achieved[live], seen, achieved[live])
        best = np.argmax(np.where(fit, ev["rate"], -np.inf), axis=1)
        live, ev = live[found], ev[found, best[found]]
        latest[live] = ev
        short[live] = False
        steps = _Aitken(len(todo))
        for _ in range(_N_MAX):
            step, stop = steps.next_p1(live, e_eff[live], ev, p, tol_p1, False)
            live, step = live[~stop], step[~stop]
            if not live.size:
                break
            live, ev = evaluate(live, step)
            # a target leaves once its plain step falls short; a reverted
            # Aitken step goes on to the plain step it replaced
            ok = ~(ev["e11"] + ev["e2"] < e_eff[live] - tol_e[live])
            latest[live[ok]] = ev[ok]
            on = ok | steps.fast[live]
            live, ev = live[on], ev[on]
    # reachability is genuinely not an interval for per-target beams: some
    # interior targets stay short at every P1
    for k in np.flatnonzero(short & ~failed).tolist():
        ctx, e = todo[k]
        got = float(achieved[k])
        out[k] = InfeasibleTargetError(
            f"strategy {ctx.strategy!r} delivers {got!r} at target {e!r}", max_attainable=got
        )
        failed[k] = True

    # the published points, built from Python values read column by column
    done = np.flatnonzero(~failed)
    fin = latest[done]
    rows = zip(
        done.tolist(),
        _columns(fin, _P3_FIELDS),
        (fin["e11"] + fin["e2"]).tolist(),
        fin["p1"].tolist(),
        iters[done].tolist(),
        (fin["clamped"] | (targets[done] > e_eff[done])).tolist(),
    )
    for k, fields, energy, p1k, n_iter, clamped in rows:
        diag = _diagnostics(*fields)
        branch = "NO_TX" if p1k == 0.0 else diag.branch
        dual = branch == "DUAL"
        out[k] = REPoint(
            e_bar=todo[k][1],
            rate_bits=diag.rate_bits,
            energy=energy,
            p1=p1k,
            branch=branch,
            iterations=n_iter,
            lam=diag.lam if dual else None,
            mu=diag.mu if dual else None,
            clamped=clamped,
            p3=diag,
        )
    return dict(zip(todo, out))


def _grid(ctxs, n_points):
    """`n_points` energy targets uniform on [0, e_max], e_max the largest of
    the contexts': one context's sweep grid, or the scheduled grid of both
    orientations.  `n_points` must be an integer (not a bool) of at least 2;
    it is checked before the e_max searches, which run side by side."""
    if not (_is_int(n_points) and n_points >= 2):
        raise InvalidInputError(f"n_points must be an integer >= 2, got {n_points!r}")
    return np.linspace(0.0, max(_emax_many(ctxs)), n_points)


def _sweep_boundary(ctx, grid, solved):
    """The validated boundary of one context's sweep over `grid`, from the
    outcomes `_solve_many` returned.

    Failed points become gap entries; a point whose rate a higher target's
    point beats is replaced by a copy of it (flagged `carried`).
    """
    points = []
    gaps = []
    for k, e_bar in enumerate(grid.tolist()):
        out = solved[ctx, e_bar]
        if isinstance(out, SwiptError):
            gaps.append((k, e_bar, str(out)))
        else:
            points.append(out)
    # a solution for a higher target over-delivers every lower target, so
    # carry it backward wherever it beats the lower target's own solution
    # (adaptive beams can land adjacent targets on different fixed points)
    for k in range(len(points) - 2, -1, -1):
        nxt = points[k + 1]
        if nxt.rate_bits > points[k].rate_bits:
            points[k] = dataclasses.replace(nxt, e_bar=points[k].e_bar, carried=True)
    return REBoundary(
        points=points,
        strategy=ctx.strategy,
        channel_digest=channel_digest(ctx.cs),
        e_max=ctx.emax(),
        seed=ctx.cs.seed,
        gaps=gaps,
    ).validate()


def re_boundary_point(cs, strategy, e_bar, p, split=0.5):
    """One point of the rate-energy boundary at energy target `e_bar`.

    Alternates the decoding user's floored rate problem with the power
    backoff at transmitter 1, accelerated by guarded Aitken steps, until P1
    moves less than 1e-8 * max(P, 1) or 20 rounds pass (`iterations`, which
    counts a reverted Aitken step too), rescues an adaptive beam that stalls
    short, and reports the achieved (rate, energy) pair: the one-target case
    of `_solve_many`.
    """
    e_bar = _as_real(e_bar, "e_bar")
    (out,) = _solve_many([(_StrategyContext(cs, strategy, p, split), [e_bar])]).values()
    if isinstance(out, SwiptError):
        raise out
    return out


def re_sweep(cs, strategy, p, n_points=64, e_grid=None, split=0.5):
    """Sweep the boundary over an energy grid (default: uniform on [0, emax]).

    `e_grid`, if given, must be 1-D, finite, nonnegative and strictly
    increasing.  Every grid target is solved as `re_boundary_point` solves
    one, Aitken steps included, all of them together (`_solve_many`): each
    round of the backoff and of the rescue evaluates the (e_bar, P1) pairs of
    every target that takes it as one stacked batch.
    Failed points become gap entries instead of aborting the sweep; a point
    whose rate a higher target's point beats is replaced by a copy of it
    (flagged `carried`), and the finished boundary is validated against its
    monotonicity invariants.
    """
    if e_grid is not None:
        grid = _as_reals(e_grid, "e_grid")
        if grid.ndim != 1:
            raise InvalidInputError("e_grid must be 1-D")
        if np.any(np.diff(grid) <= 0.0):
            raise InvalidInputError("e_grid must be strictly increasing")
    ctx = _StrategyContext(cs, strategy, p, split)
    if e_grid is None:
        grid = _grid([ctx], n_points)
    return _sweep_boundary(ctx, grid, _solve_many([(ctx, grid)]))


def time_sharing_curve(boundary, weights):
    """Convex combinations of the two ends of a fixed-beam sweep.

    `boundary` is a meb or mlb sweep whose first point is at target 0 and
    whose last is at its e_max, as `re_sweep` builds on its own grid.
    Endpoint A, the last point, has transmitter 1 at full power on its beam
    and transmitter 2 beaming at the harvester; endpoint B, the first, has
    transmitter 1 off and transmitter 2 water-filling.  Each weight tau in
    [0, 1] spends a tau fraction of time in slot A, so transmitter 1's mean
    power, reported as p1, is tau times A's.
    """
    if boundary.strategy not in ("meb", "mlb"):
        raise InvalidInputError(f"time sharing supports meb or mlb, got {boundary.strategy!r}")
    pts = boundary.points
    if not pts or pts[0].e_bar != 0.0 or pts[-1].e_bar != boundary.e_max:
        raise InvalidInputError("time sharing needs a sweep with points at target 0 and at e_max")
    b, a = pts[0], pts[-1]
    weights = _as_reals(weights, "weights")
    if weights.ndim != 1 or not np.all(weights <= 1):
        raise InvalidInputError("weights must be a 1-D list of values in [0, 1]")
    points = []
    for tau in np.sort(weights):
        energy = (1.0 - tau) * b.energy + tau * a.energy
        if points and energy <= points[-1].energy:
            continue
        points.append(
            REPoint(
                e_bar=energy,
                rate_bits=(1.0 - tau) * b.rate_bits + tau * a.rate_bits,
                energy=energy,
                p1=tau * a.p1,
                branch="TS",
                iterations=0,
            )
        )
    return REBoundary(
        points=points,
        strategy=boundary.strategy,
        channel_digest=boundary.channel_digest,
        e_max=a.energy,
        seed=boundary.seed,
    ).validate()
