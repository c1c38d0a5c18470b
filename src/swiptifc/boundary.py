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
DUAL branch is a single scalar root: energy(rho) = E_floor.

Every target of a sweep is solved in lockstep (`_solve_many`), as array
passes over per-target P1, iteration and evaluation arrays.  Each round of
the power backoff, the stall rescue's P1 scan and backoff, and the no-TX
step evaluates the (E_bar, P1) pairs of all targets that take it in one
stacked pass (`_evaluate_batch`): transmitter 1's beams, the whitened links
H22~, water-filling, and, for the targets on the DUAL branch, the roots over
rho (`_ratio_roots`).  Each root is a step-for-step port of scipy's brentq,
and each of their rounds is one stacked SVD of the rays all rows ask for.
`re_boundary_point` and `solve_p3` run the same code with one target.

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
    check_strategy,
    meb,
    meb_rank2,
    mlb,
    sler_directions,
    sler_floor,
    slnr_directions,
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
from .linalg import _as_real, as_matrix, hermitian_eig, hermitian_part, inv_sqrt_psd, spectral_norm
from .metrics import (
    TxCovariance,
    canonical_beam,
    canonical_directions,
    check_covariances,
    check_unit_rows,
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

_LN2 = float(np.log(2.0))

# outer loop defaults
_N_MAX = 20
_P1_TOL = 1e-8
_RESCUE_SCAN = 33

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

    branch: str                # "WF" or "DUAL"
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
    branch: str                # NO_TX | WF | DUAL | TS
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


def _rate_bits(ht, q):
    """log2 det(I + Ht Q Ht^H) of each (Ht, Q) pair of two stacks."""
    s = ht @ q @ ht.conj().swapaxes(-1, -2)
    _, logdet = np.linalg.slogdet(
        np.eye(ht.shape[-2], dtype=np.complex128) + hermitian_part(s)
    )
    return np.maximum(logdet / _LN2, 0.0)


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
        gain = sig**2
        # modes below the rounding floor of the strongest gain carry no power
        keep = gain > gain[:, :1] * 1e-15
        floors = np.full_like(gain, np.inf)
        floors[keep] = 1.0 / gain[keep]
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


# one evaluation of an (e_bar, P1) pair (see the module docstring): `dual`
# marks the DUAL branch (else WF), lam and mu are nan where the branch
# reports none, e2 is receiver 2's energy, e11 = kappa * P1 the direct-link
# energy, and `clamped` marks a floor left for transmitter 2 out of its reach
_EVAL = np.dtype(
    [(name, float) for name in ("p1", "kappa", "e11", "lam", "mu", "gap", "e2", "trace", "rate")]
    + [(name, bool) for name in ("clamped", "dual", "repaired", "rescaled")]
    + [("evals", int)]
)


def _diagnostics(ev):
    """The `P3Diagnostics` of one `_EVAL` record."""
    lam, mu = float(ev["lam"]), float(ev["mu"])
    return P3Diagnostics(
        branch="DUAL" if ev["dual"] else "WF",
        iterations=int(ev["evals"]),
        lam=None if math.isnan(lam) else lam,
        mu=None if math.isnan(mu) else mu,
        gap=float(ev["gap"]),
        energy=float(ev["e2"]),
        trace=float(ev["trace"]),
        rate_bits=float(ev["rate"]),
        repaired=bool(ev["repaired"]),
        rescaled=bool(ev["rescaled"]),
    )


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
    # dual pair diverges there, so return the beam directly
    at_cap = e_req >= cap * (1.0 - 1e-10)
    q[at_cap] = p * _outer(v12[rows[at_cap]])
    energy[at_cap] = cap[at_cap]
    trace[at_cap] = p

    links = np.unique(rows[~at_cap])
    q_wf = waterfill_stack(ht[links], p) if links.size else q[:0]
    e_wf = np.full(ht.shape[0], np.nan)
    e_wf[links] = _cross_energy(c[links], w[links], q_wf)
    slot = np.zeros(ht.shape[0], dtype=int)
    slot[links] = np.arange(links.size)
    wf = ~at_cap & (e_req <= e_wf[rows])
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
    q = hermitian_part(q)
    # every covariance built here passes TxCovariance's checks
    check_covariances(np.concatenate((q, q_wf)), p)
    rec["dual"] = ~wf
    rec["rate"] = _rate_bits(ht[rows], q)
    return q, rec


def solve_p3(h22_tilde, h12, e_target, p):
    """Rate maximization for the decoding user under an energy floor.

    maximize log det(I + Ht Q Ht^H) s.t. tr(H12 Q H12^H) >= e_target,
    tr(Q) <= P, Q PSD.  If water-filling alone meets the floor it is
    returned (branch WF); otherwise one root over the ratio rho = lam / mu,
    with the water level 1/mu exact at each rho, resolves the two dual
    multipliers (branch DUAL), reported as lam = rho / eta and mu = 1 / eta.
    A trace above P by rounding is scaled back (`rescaled`), and a residual
    energy shortfall is repaired by mixing toward the cross-link beam
    covariance (`repaired`).  `P3Diagnostics.iterations` counts the SVDs
    spent.

    Returns (TxCovariance, P3Diagnostics).
    """
    p = _as_real(p, "power budget", positive=True)
    e_target = float(e_target)
    if not np.isfinite(e_target):
        raise InvalidInputError("e_target must be finite")
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
    e_req = min(max(e_target, 0.0), cap)
    q, rec = _solve_p3_batch(
        ht[None], np.zeros(1, dtype=int), np.array([e_req]), p, [np.array([a]) for a in cross]
    )
    return TxCovariance(q[0], p), _diagnostics(rec[0])


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
        w_fixed = None
        if strategy == "meb":
            v = meb(cs.h11, 1.0).v
            w_fixed = np.outer(v, v.conj())
        elif strategy == "mlb":
            v = mlb(cs.h21, 1.0).v
            w_fixed = np.outer(v, v.conj())
        elif strategy == "meb_rank2":
            w_fixed = meb_rank2(cs.h11, 1.0, split).q
        self.fixed = w_fixed is not None
        if self.fixed:
            self.consts.update(
                w_fixed=w_fixed,
                kappa_fixed=float(_kappa(cs.h11[None], w_fixed[None])[0]),
                leak_fixed=cs.h21 @ w_fixed @ cs.h21.conj().T,
            )
        else:
            # vanishing power: both adaptive beams collapse to the pure
            # energy beam (their denominators are dominated by the floor)
            self.consts["meb_v"] = meb(cs.h11, 1.0).v
            self.consts["h11_norm2"] = spectral_norm(cs.h11) ** 2
        self._emax = None

    def emax(self):
        """Largest reachable energy target for this strategy at full power."""
        return _emax_many([self])[0]


def _stack(ctxs):
    """The `consts` of the strategy contexts of one lockstep, each stacked
    along a leading context axis; an evaluation row reads its own context's
    entries by index.  The contexts share strategy, P and link shape; their
    fixed beams (`w_fixed`, `kappa_fixed`, `leak_fixed`) are per-context
    entries, so they may differ in split.
    """
    first = ctxs[0]
    return SimpleNamespace(
        strategy=first.strategy,
        p=first.p,
        fixed=first.fixed,
        **{k: np.stack([ctx.consts[k] for ctx in ctxs]) for k in first.consts},
    )


def _kappa(h11, w_unit):
    """Direct-link energy gain tr(H11 W H11^H) of each stacked pair."""
    return np.einsum("nij,njk,nik->n", h11, w_unit, h11.conj()).real


def _unit_covs(st, ci, e_bars, p1s):
    """Unit-trace covariance structures (n, M_t, M_t) of transmitter 1 at
    each (e_bar, P1) pair, row i in context ci[i] of the stack `st`, and
    their direct-link energy gains kappa."""
    if st.fixed:
        return st.w_fixed[ci], st.kappa_fixed[ci]
    v = np.empty((p1s.size, st.h11.shape[-1]), dtype=np.complex128)
    low = p1s <= 1e-12 * st.p
    v[low] = st.meb_v[ci[low]]
    hi = ~low
    if hi.any():
        h11, h21 = st.h11[ci[hi]], st.h21[ci[hi]]
        if st.strategy == "sler":
            floors = sler_floor(st.h11_norm2[ci[hi]], e_bars[hi], p1s[hi])
            dirs = sler_directions(h11, h21, floors)
        else:
            dirs = slnr_directions(h11, h21, p1s[hi])
        v[hi] = canonical_directions(dirs)
        check_unit_rows(v[hi])
    w = _outer(v)
    return w, _kappa(st.h11[ci], w)


def _whitened_links(st, ci, w_unit, p1s):
    """H22~ = (I + P1 H21 W H21^H)^{-1/2} H22 for each stacked pair, row i in
    context ci[i] of the stack `st`."""
    out = st.h22[ci]
    on = p1s > 0.0
    if on.any():
        cj = ci[on]
        if st.fixed:
            leak = st.leak_fixed[cj]
        else:
            h21 = st.h21[cj]
            leak = h21 @ w_unit[on] @ h21.conj().swapaxes(-1, -2)
        r2 = np.eye(out.shape[-2], dtype=np.complex128) + p1s[on, None, None] * leak
        out[on] = inv_sqrt_psd(hermitian_part(r2)) @ st.h22[cj]
    return out


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
    w_unit, kappa_u = _unit_covs(st, ci_u, e_u, p1_u)
    ht = _whitened_links(st, ci_u, w_unit, p1_u)
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


def _backoff(e_eff, ev, p):
    """The next P1 of each target's power backoff from its evaluation `ev`:
    (e_eff - e2) / kappa, clipped to [0, P] as min(max(., 0.0), P) clips a
    float, where `ev` over-delivers with kappa > 0; elsewhere `ev`'s own P1."""
    over = (ev["e11"] + ev["e2"] > e_eff) & (ev["kappa"] > 0.0)
    p1 = (e_eff - ev["e2"]) / np.where(over, ev["kappa"], 1.0)
    p1 = np.where(0.0 > p1, 0.0, p1)
    return np.where(over, np.where(p < p1, p, p1), ev["p1"])


def _solve_many(jobs):
    """Boundary points of several strategy contexts, solved together.

    `jobs` lists (context, e_bars) pairs; the contexts share strategy, P and
    link shape (see `_stack`).  Each distinct (context, e_bar) pair is one target,
    solved once.  Each step evaluates the (e_bar, P1) pairs of every target
    that takes it as one stacked batch (`_evaluate_batch`):

    * the power backoff: from P1 = P, alternate the floored rate solve with
      P1 = (E_bar - cross energy) / kappa until P1 moves less than
      1e-8 * max(P, 1) or 20 rounds pass; a target whose P1 settled away
      from its last evaluation is evaluated there in one more round;
    * the stall rescue, for adaptive beams only.  An adaptive beam stops
      tilting toward the energy subspace once its own power covers the
      harvesting floor, so delivered energy is not monotone in P1: it can
      dip below the target at full power while an interior P1 still reaches
      it.  Each target still short scans `_RESCUE_SCAN` P1 values in one
      batch, keeps its first best-rate candidate that reaches the target,
      and backs off from there while the target stays reached;
    * the no-TX evaluation at P1 = 0 of the targets whose P1 ended within
      1e-12 * max(P, 1) of it.

    If a batch raises a SwiptError, its rows are evaluated one at a time,
    and each target whose row raises takes the error.  Returns a dict that
    maps each pair to its REPoint or to the SwiptError that stopped it.
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
        if not np.isfinite(e) or e < 0:
            out[k] = InvalidInputError(f"e_bar must be finite nonnegative, got {e!r}")
        elif not _reaches(e, em):
            out[k] = InfeasibleTargetError(
                f"energy target {e!r} exceeds e_max {em!r} for strategy {ctx.strategy!r}",
                max_attainable=em,
            )
    failed = np.array([o is not None for o in out])
    e_eff = np.minimum(np.array([e for _, e in todo]), np.array(ems)[ci])
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
    live = np.flatnonzero(~failed)
    while live.size:
        live, ev = evaluate(live, p1[live])
        latest[live] = ev
        # the targets evaluated at their settled P1 are done
        back = ~settled[live]
        live, ev = live[back], ev[back]
        iters[live] += 1
        p1[live] = _backoff(e_eff[live], ev, p)
        settled[live] = (np.abs(p1[live] - ev["p1"]) <= tol_p1) | (iters[live] == _N_MAX)
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
        for _ in range(_N_MAX):
            step = _backoff(e_eff[live], ev, p)
            move = ~(np.abs(step - ev["p1"]) <= tol_p1)
            live, step = live[move], step[move]
            if not live.size:
                break
            live, ev = evaluate(live, step)
            ok = ~(ev["e11"] + ev["e2"] < e_eff[live] - tol_e[live])
            live, ev = live[ok], ev[ok]
            latest[live] = ev
    # reachability is genuinely not an interval for per-target beams: some
    # interior targets stay short at every P1
    for k in np.flatnonzero(short & ~failed).tolist():
        ctx, e = todo[k]
        got = float(achieved[k])
        out[k] = InfeasibleTargetError(
            f"strategy {ctx.strategy!r} delivers {got!r} at target {e!r}", max_attainable=got
        )
        failed[k] = True

    no_tx = ~failed & (latest["p1"] <= 1e-12 * max(p, 1.0))
    live = np.flatnonzero(no_tx & (latest["p1"] != 0.0))
    if live.size:
        live, ev = evaluate(live, np.zeros(live.size))
        latest[live] = ev
    for k in np.flatnonzero(~failed).tolist():
        ctx, e = todo[k]
        ev = latest[k]
        diag = _diagnostics(ev)
        branch = "NO_TX" if no_tx[k] else diag.branch
        out[k] = REPoint(
            e_bar=e,
            rate_bits=float(ev["rate"]),
            energy=float(ev["e11"] + ev["e2"]),
            p1=0.0 if no_tx[k] else float(ev["p1"]),
            branch=branch,
            iterations=int(iters[k]),
            lam=diag.lam if branch == "DUAL" else None,
            mu=diag.mu if branch == "DUAL" else None,
            clamped=bool(ev["clamped"]) or e > ems[ci[k]],
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
    backoff at transmitter 1 until P1 moves less than 1e-8 * max(P, 1) or 20
    rounds pass, rescues an adaptive beam that stalls short, and reports the
    achieved (rate, energy) pair: the one-target case of `_solve_many`.
    """
    try:
        e_bar = float(e_bar)
    except (TypeError, ValueError):
        raise InvalidInputError(f"e_bar must be a real number, got {e_bar!r}") from None
    (out,) = _solve_many([(_StrategyContext(cs, strategy, p, split), [e_bar])]).values()
    if isinstance(out, SwiptError):
        raise out
    return out


def re_sweep(cs, strategy, p, n_points=64, e_grid=None, split=0.5):
    """Sweep the boundary over an energy grid (default: uniform on [0, emax]).

    `e_grid`, if given, must be 1-D, finite, nonnegative and strictly
    increasing.  Every grid target is solved as `re_boundary_point` solves
    one, all of them together (`_solve_many`): each round of the backoff, the
    rescue and the no-TX step evaluates the (e_bar, P1) pairs of every target
    that takes it as one stacked batch.
    Failed points become gap entries instead of aborting the sweep; a point
    whose rate a higher target's point beats is replaced by a copy of it
    (flagged `carried`), and the finished boundary is validated against its
    monotonicity invariants.
    """
    if e_grid is not None:
        try:
            grid = np.asarray(e_grid, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"e_grid must be numeric: {exc}") from exc
        if grid.ndim != 1 or not np.all(np.isfinite(grid) & (grid >= 0.0)):
            raise InvalidInputError("e_grid must be 1-D, finite and nonnegative")
        if np.any(np.diff(grid) <= 0.0):
            raise InvalidInputError("e_grid must be strictly increasing")
    ctx = _StrategyContext(cs, strategy, p, split)
    if e_grid is None:
        grid = _grid([ctx], n_points)
    return _sweep_boundary(ctx, grid, _solve_many([(ctx, grid)]))


def time_sharing_curve(boundary, weights=None):
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
    if weights is None:
        weights = np.linspace(0.0, 1.0, 33)
    try:
        weights = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        weights = None
    # nan fails both bounds, and +-inf one of them
    if weights is None or weights.ndim != 1 or not np.all((weights >= 0) & (weights <= 1)):
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
