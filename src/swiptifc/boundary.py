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

Every target of a sweep is solved in lockstep.  Each target keeps its own
control flow, a generator that yields the (E_bar, P1) pairs it needs and
makes its own P1 update, convergence test, stall rescue and no-TX check; a
round collects the pending pairs of all targets and evaluates them in one
stacked pass (`_evaluate_batch`): transmitter 1's beams, the whitened links
H22~, water-filling, and, for the targets on the DUAL branch, a lockstep
root over rho whose every step is one stacked SVD.  `re_boundary_point`,
`solve_p3` and the endpoint search run the same code with one target.

A strategy context (`_context`) is shared per channel orientation,
strategy, P and split: its e_max is found once, and it keeps every solved
target's outcome, so `re_sweep`, `re_boundary_point`, `emax` and the
scheduled sweep solve each (target, round limit) of an orientation once.
Shared points and errors are never mutated.

One lockstep may span several contexts that share strategy, P, split and
link shape (`_solve_many`), such as both orientations of one channel: every
row of a round carries its context's index and reads that context's links
and constants, stacked once per lockstep (`_stack`).  Solving one context
is the one-context case of the same code.
"""

import copy
import dataclasses
import functools
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
    slnr_directions,
    water_level,
    waterfill,
    waterfill_stack,
)
from .channel import channel_digest
from .exceptions import (
    InfeasibleTargetError,
    InvalidInputError,
    InvariantViolationError,
    SwiptError,
)
from .linalg import as_matrix, hermitian_eig, hermitian_part, inv_sqrt_psd, spectral_norm, svd
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

    def validate(self, rate_tol=1e-6, energy_tol=1e-6):
        prev = None
        for pt in self.points:
            if pt.rate_bits < -1e-12 or pt.energy < -1e-9:
                raise InvariantViolationError(
                    f"negative rate or energy at e_bar={pt.e_bar!r}"
                )
            if pt.energy < pt.e_bar - energy_tol * max(1.0, pt.e_bar):
                raise InvariantViolationError(
                    f"energy {pt.energy!r} misses target {pt.e_bar!r}"
                )
            if prev is not None:
                if pt.e_bar <= prev.e_bar:
                    raise InvariantViolationError("e_bar grid is not strictly increasing")
                if pt.rate_bits > prev.rate_bits + rate_tol:
                    raise InvariantViolationError(
                        f"rate increases along the curve at e_bar={pt.e_bar!r} "
                        f"({prev.rate_bits!r} -> {pt.rate_bits!r})"
                    )
            prev = pt
        return self


# ---------------------------------------------------------------------------
# lockstep driver


def _run_lockstep(steps, evaluate):
    """Advance per-target step generators together.

    Each generator yields a list of requests and is sent back the list of
    their results; one round answers the pending requests of every target
    with a single `evaluate(owners, requests)` call.  A target's outcome is
    its generator's return value, or the SwiptError it raised.  If a round
    fails with a SwiptError, its requests are answered one at a time, and
    each target that asked for a failing one has the error raised into it.
    """
    out = [None] * len(steps)
    pending = {}

    def advance(k, results=None, error=None):
        try:
            if error is not None:
                request = steps[k].throw(error)
            else:
                request = steps[k].send(results)
        except StopIteration as stop:
            out[k] = stop.value
        except SwiptError as exc:
            out[k] = exc
        else:
            pending[k] = request

    for k in range(len(steps)):
        advance(k)
    while pending:
        batch = list(pending.items())
        pending.clear()
        owners = [k for k, req in batch for _ in req]
        flat = [r for _, req in batch for r in req]
        try:
            results = evaluate(owners, flat)
        except SwiptError:
            results = []
            for k, r in zip(owners, flat):
                try:
                    results.extend(evaluate([k], [r]))
                except SwiptError as exc:
                    results.append(exc)
        pos = 0
        for k, req in batch:
            mine = results[pos : pos + len(req)]
            pos += len(req)
            error = next((r for r in mine if isinstance(r, SwiptError)), None)
            advance(k, mine, error)
    return out


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


# ---------------------------------------------------------------------------
# floored rate problem: maximize log det(I + Ht Q Ht^H) s.t. the energy floor


@functools.lru_cache(maxsize=8)
def _cross_factor(shape, data):
    """G = H12^H H12 = W diag(c) W^H for the cross link stored in `data`.

    Keyed on the link's shape and bytes, so each channel is factored once;
    returns read-only (c, W, cmax, v12).
    """
    h12 = np.frombuffer(data, dtype=np.complex128).reshape(shape)
    c, w = hermitian_eig(h12.conj().T @ h12)
    c = np.maximum(c, 0.0)
    v12 = canonical_beam(w[:, 0], 1.0).v
    for arr in (c, w, v12):
        arr.setflags(write=False)
    return c, w, float(c[0]), v12


def _cross_energy(c, w, q):
    """tr(H12 Q H12^H) of each Q of a stack, through the cached factorization
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


def _ratio_root(e_req, e_wf, rho_hi):
    """One target's root of energy(rho) = e_req on the price ray.

    At rho = 0 the ray point is water-filling, whose energy e_wf is short of
    the target; energy grows toward P cmax as rho approaches 1/cmax.  Yields
    [rho] for each ray it needs and returns (rho, ray, ray evaluations).
    """
    rays = {}
    (rays[rho_hi],) = yield [rho_hi]
    if rays[rho_hi][0] - e_req < 0.0:
        # no gain along the cross-link beam: repair closes the gap
        rho = rho_hi
    else:
        root = _brentq_steps(0.0, rho_hi)
        rho = next(root)
        try:
            while True:
                if rho == 0.0:
                    f = e_wf - e_req
                else:
                    if rho not in rays:
                        (rays[rho],) = yield [rho]
                    f = rays[rho][0] - e_req
                rho = root.send(f)
        except StopIteration as stop:
            rho = stop.value
    # a target within rounding of e_wf can return the endpoint rho = 0
    if rho not in rays:
        (rays[rho],) = yield [rho]
    return rho, rays[rho], len(rays)


@dataclass
class _P3Batch:
    """Floored rate solves of a stack of targets, one row each."""

    q: np.ndarray              # (n, M_t, M_t) covariances, validated
    dual: np.ndarray           # DUAL branch (else WF)
    evals: np.ndarray          # ray evaluations
    lam: np.ndarray            # nan where the branch reports none
    mu: np.ndarray
    gap: np.ndarray
    energy: np.ndarray
    trace: np.ndarray
    rate_bits: np.ndarray
    repaired: np.ndarray
    rescaled: np.ndarray

    def diagnostics(self, i):
        lam, mu = float(self.lam[i]), float(self.mu[i])
        return P3Diagnostics(
            branch="DUAL" if self.dual[i] else "WF",
            iterations=int(self.evals[i]),
            lam=None if math.isnan(lam) else lam,
            mu=None if math.isnan(mu) else mu,
            gap=float(self.gap[i]),
            energy=float(self.energy[i]),
            trace=float(self.trace[i]),
            rate_bits=float(self.rate_bits[i]),
            repaired=bool(self.repaired[i]),
            rescaled=bool(self.rescaled[i]),
        )


def _solve_p3_batch(ht, rows, e_req, p, cross):
    """`solve_p3` for a stack of targets.

    `ht` holds distinct own links (u, M_r, M_t), `rows` maps each target to
    its link, `e_req` holds floors already clipped to [0, P cmax], and
    `cross` holds each link's cross-link `_cross_factor`, stacked: c (u, M_t),
    W (u, M_t, M_t), cmax (u,) and v12 (u, M_t).  Water-filling runs once per
    link; the DUAL targets share one lockstep ratio root.
    """
    c, w, cmax, v12 = cross
    n, m_t = e_req.size, w.shape[-1]
    cap = p * cmax[rows]
    q = np.empty((n, m_t, m_t), dtype=np.complex128)
    energy = np.empty(n)
    trace = np.empty(n)
    evals = np.zeros(n, dtype=int)
    lam = np.full(n, np.nan)
    mu = np.full(n, np.nan)
    gap = np.zeros(n)
    rescaled = np.zeros(n, dtype=bool)
    repaired = np.zeros(n, dtype=bool)

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
        f = ht[link] @ w[link]
        rho_hi = (1.0 - _RHO_MARGIN) / cmax[link]

        def rays(owners, rhos):
            r = _Rays(f[owners], c[link[owners]], np.array(rhos), p)
            return [(e, r, i) for i, e in enumerate(r.energy.tolist())]

        roots = _run_lockstep(
            [
                _ratio_root(e, e0, hi)
                for e, e0, hi in zip(
                    e_req[idx].tolist(), e_wf[link].tolist(), rho_hi.tolist()
                )
            ],
            rays,
        )
        rho = np.array([r[0] for r in roots])
        picks = [r[1] for r in roots]
        evals[idx] = [r[2] for r in roots]
        eta = np.array([r.eta[i] for _, r, i in picks])
        q_dual = _ray_covariances(
            w[link],
            np.stack([r.d[i] for _, r, i in picks]),
            np.stack([r.vh[i] for _, r, i in picks]),
            np.stack([r.powers[i] for _, r, i in picks]),
        )
        qd, ed, td, rescaled[idx], repaired[idx] = _repair(
            q_dual,
            np.array([r.trace[i] for _, r, i in picks]),
            np.array([e for e, _, _ in picks]),
            e_req[idx],
            p,
            cap[idx],
            v12[link],
        )
        q[idx], energy[idx], trace[idx] = qd, ed, td
        gap[idx] = np.maximum(
            np.maximum(e_req[idx] - ed, 0.0) / np.maximum(1.0, e_req[idx]),
            np.maximum(td - p, 0.0) / p,
        )
        lam[idx] = rho / eta
        mu[idx] = 1.0 / eta
    q = hermitian_part(q)
    # every covariance built here passes TxCovariance's checks
    check_covariances(np.concatenate((q, q_wf)), p)
    return _P3Batch(
        q=q,
        dual=~wf,
        evals=evals,
        lam=lam,
        mu=mu,
        gap=gap,
        energy=energy,
        trace=trace,
        rate_bits=_rate_bits(ht[rows], q),
        repaired=repaired,
        rescaled=rescaled,
    )


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
    p = float(p)
    if not np.isfinite(p) or p <= 0:
        raise InvalidInputError(f"power budget must be positive, got {p!r}")
    e_target = float(e_target)
    if not np.isfinite(e_target):
        raise InvalidInputError("e_target must be finite")
    ht = as_matrix(h22_tilde, "h22_tilde")
    h12 = as_matrix(h12, "h12")
    if h12.shape[1] != ht.shape[1]:
        raise InvalidInputError(
            f"transmit dims differ: h22_tilde {ht.shape}, h12 {h12.shape}"
        )
    cross = _cross_factor(h12.shape, h12.tobytes())
    cap = p * cross[2]
    if e_target > cap * (1.0 + _FEAS_SLACK) + 1e-12:
        raise InfeasibleTargetError(
            f"energy target {e_target!r} exceeds the deliverable maximum {cap!r}",
            max_attainable=cap,
        )
    e_req = min(max(e_target, 0.0), cap)
    res = _solve_p3_batch(
        ht[None], np.zeros(1, dtype=int), np.array([e_req]), p, [np.array([a]) for a in cross]
    )
    return TxCovariance(res.q[0], p), res.diagnostics(0)


# ---------------------------------------------------------------------------
# strategy plumbing for transmitter 1


class _StrategyContext:
    """Cached per-channel quantities plus the beam family of one strategy.

    `consts` holds what an evaluation reads per row (see `_stack`); `solved`
    maps (e_bar, n_max) to the outcome `_solve_many` found.
    """

    def __init__(self, cs, strategy, p, split=0.5):
        check_strategy(strategy)
        self.cs = cs
        self.strategy = strategy
        self.p = float(p)
        if not np.isfinite(self.p) or self.p <= 0:
            raise InvalidInputError(f"power budget must be positive, got {p!r}")
        self.split = split
        _, s12, _ = svd(cs.h12)
        c, w, cmax, v12 = _cross_factor(cs.h12.shape, cs.h12.tobytes())
        self.consts = dict(
            h11=cs.h11,
            h21=cs.h21,
            h22=cs.h22,
            sig12_max2=float(s12[0] ** 2),
            c=c,
            w=w,
            cmax=cmax,
            v12=v12,
        )
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
            if strategy == "sler":
                self.consts["h11_norm2"] = spectral_norm(cs.h11) ** 2
        self._emax = None
        self.solved = {}

    def emax(self):
        """Largest reachable energy target for this strategy at full power."""
        return _emax_many([self])[0]

    def _pin_endpoint(self, e, hard):
        # the map e -> p * (kappa(e, p) + sig12^2) can have slope > 1 at its
        # fixed point, so forward iteration may cycle instead of converging;
        # bisect delivered-minus-target to a value the sweep can actually hit
        tol = 1e-9 * max(1.0, e)

        one = _stack([self])

        def surplus(target):
            ev = _evaluate_batch(
                one, np.zeros(1, dtype=int), np.array([target]), np.array([self.p])
            ).view(0)
            return ev.e11 + ev.e2 - target

        g = surplus(e)
        if abs(g) <= tol:
            return e
        if g > 0.0:
            lo, hi = e, hard
            if surplus(hi) >= 0.0:
                return hi
        else:
            lo, hi, step = None, e, max(1e-3 * e, 1e-6)
            t = e
            for _ in range(40):
                t = max(t - step, 0.0)
                if surplus(t) >= 0.0:
                    lo, hi = t, t + step
                    break
                step *= 1.6
                if t == 0.0:
                    return 0.0
            if lo is None:
                return 0.0
        for _ in range(80):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if surplus(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return lo


def _stack(ctxs):
    """The `consts` of the strategy contexts of one lockstep, each stacked
    along a leading context axis; an evaluation row reads its own context's
    entries by index.  The contexts share strategy, P, split and link shape.
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
            floors = np.maximum(e_bars[hi] / p1s[hi] - st.h11_norm2[ci[hi]], 0.0)
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


def _emax_many(ctxs):
    """`emax` of each strategy context; the contexts share strategy, P, split
    and link shape.

    The forward iterations of the adaptive contexts run side by side, one
    stacked beam build per step, and each stops at its own 1e-12 test; each
    endpoint is then pinned on its own.
    """
    todo = [ctx for ctx in dict.fromkeys(ctxs) if ctx._emax is None]
    if todo:
        st = _stack(todo)
        p = st.p
        if st.fixed:
            found = (p * (st.kappa_fixed + st.sig12_max2)).tolist()
        else:
            # self-consistent target: the adaptive beam at e_max must itself
            # deliver e_max; iterate from the energy-beam level
            kappa = np.array([float(svd(ctx.cs.h11)[1][0] ** 2) for ctx in todo])
            hard = p * (kappa + st.sig12_max2)
            e = hard.copy()
            live = np.arange(len(todo))
            for _ in range(32):
                _, kappa = _unit_covs(st, live, e[live], np.full(live.size, p))
                e_new = p * (kappa + st.sig12_max2[live])
                done = np.abs(e_new - e[live]) <= 1e-12 * np.maximum(1.0, e[live])
                e[live] = e_new
                live = live[~done]
                if not live.size:
                    break
            found = [
                ctx._pin_endpoint(min(ek, hk), hk)
                for ctx, ek, hk in zip(todo, e.tolist(), hard.tolist())
            ]
        for ctx, ek in zip(todo, found):
            ctx._emax = ek
    return [ctx._emax for ctx in ctxs]


@functools.lru_cache(maxsize=8)
def _shared_context(shape, links, strategy, p, split):
    """The context of the orientation whose links (h11, h12, h21, h22) are
    stored in `links`, built on read-only copies of them."""
    h11, h12, h21, h22 = (
        np.frombuffer(data, dtype=np.complex128).reshape(shape) for data in links
    )
    cs = SimpleNamespace(h11=h11, h12=h12, h21=h21, h22=h22, m_r=shape[0], m_t=shape[1])
    return _StrategyContext(cs, strategy, p, split)


def _context(cs, strategy, p, split=0.5):
    """The strategy context of a channel orientation, shared by every call
    with the same links (by shape and bytes), strategy, P and split."""
    links = tuple(h.tobytes() for h in (cs.h11, cs.h12, cs.h21, cs.h22))
    return _shared_context(cs.h11.shape, links, strategy, float(p), split)


def emax(cs, strategy, p, split=0.5):
    """Right boundary endpoint: the largest energy any sweep can target."""
    return _context(cs, strategy, p, split).emax()


@dataclass
class _Evaluation:
    """One (e_bar, P1) pair's outcome, read off an `_Evaluations` row."""

    p1: float
    kappa: float
    e11: float
    e2: float
    rate_bits: float
    clamped: bool
    p3: _P3Batch
    row: int

    @property
    def diag(self):
        return self.p3.diagnostics(self.row)


@dataclass
class _Evaluations:
    p1: list
    kappa: list
    e11: list
    clamped: list
    p3: _P3Batch

    def view(self, i):
        return _Evaluation(
            p1=self.p1[i],
            kappa=self.kappa[i],
            e11=self.e11[i],
            e2=float(self.p3.energy[i]),
            rate_bits=float(self.p3.rate_bits[i]),
            clamped=self.clamped[i],
            p3=self.p3,
            row=i,
        )


def _evaluate_batch(st, ci, e_bars, p1s):
    """Evaluate every (e_bar, P1) pair in one stacked pass: transmitter 1's
    beam, the whitened link H22~ it leaves for receiver 2, and the floored
    rate solve at the energy still missing.  Row i belongs to context ci[i]
    of the stack `st` (see `_stack`) and reads that context's links."""
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
    cap = st.p * st.sig12_max2[ci]
    e_need = e_bars - e11
    clamped = e_need > cap * (1.0 + _FEAS_SLACK)
    e_need = np.minimum(np.maximum(e_need, 0.0), cap)
    cross = [st.c[ci_u], st.w[ci_u], st.cmax[ci_u], st.v12[ci_u]]
    p3 = _solve_p3_batch(ht, rows, np.minimum(e_need, st.p * st.cmax[ci]), st.p, cross)
    return _Evaluations(
        p1=p1s.tolist(),
        kappa=kappa.tolist(),
        e11=e11.tolist(),
        clamped=clamped.tolist(),
        p3=p3,
    )


def _rescue_steps(ctx, e_eff, n_max):
    """Recover a boundary point when the power backoff stalls short.

    An adaptive beam stops tilting toward the energy subspace as soon as its
    own power covers the harvesting floor, so delivered energy is not
    monotone in P1: it can dip below the target at full power while an
    interior P1 still reaches it.  Scan P1, keep the best-rate feasible
    candidate, and re-run the backoff from there.  Returns (p1, evaluation)
    or (None, max delivered) when no scanned P1 reaches the target.
    """
    p = ctx.p
    tol = 1e-9 * max(1.0, e_eff)
    best = None
    max_seen = -np.inf
    cands = np.linspace(0.0, p, _RESCUE_SCAN).tolist()
    evs = yield cands
    for cand, ev in zip(cands, evs):
        max_seen = max(max_seen, ev.e11 + ev.e2)
        if ev.e11 + ev.e2 >= e_eff - tol:
            if best is None or ev.rate_bits > best[1].rate_bits:
                best = (cand, ev)
    if best is None:
        return None, max_seen
    p1, ev = best
    for _ in range(n_max):
        if not (ev.e11 + ev.e2 > e_eff and ev.kappa > 0.0):
            break
        p1_new = min(max((e_eff - ev.e2) / ev.kappa, 0.0), p)
        if abs(p1_new - p1) <= _P1_TOL * max(p, 1.0):
            break
        (ev_new,) = yield [p1_new]
        if ev_new.e11 + ev_new.e2 < e_eff - tol:
            break
        p1, ev = p1_new, ev_new
    return p1, ev


def _point_steps(ctx, e_bar, n_max):
    """One target's boundary point, as a lockstep generator.

    Alternates the decoding user's floored rate problem with the power
    backoff at transmitter 1 until P1 moves less than 1e-8 * P or `n_max`
    rounds pass, then reports the achieved (rate, energy) pair.  Yields the
    P1 values to evaluate at this target and is sent their evaluations.
    """
    em = ctx.emax()
    e_bar = float(e_bar)
    if not np.isfinite(e_bar) or e_bar < 0:
        raise InvalidInputError(f"e_bar must be finite nonnegative, got {e_bar!r}")
    if e_bar > em * (1.0 + _FEAS_SLACK) + 1e-12:
        raise InfeasibleTargetError(
            f"energy target {e_bar!r} exceeds e_max {em!r} for strategy {ctx.strategy!r}",
            max_attainable=em,
        )
    e_eff = min(e_bar, em)
    p = ctx.p
    p1 = p
    ev = None
    iters = 0
    for iters in range(1, n_max + 1):
        (ev,) = yield [p1]
        if ev.e11 + ev.e2 > e_eff and ev.kappa > 0.0:
            p1_new = min(max((e_eff - ev.e2) / ev.kappa, 0.0), p)
        else:
            p1_new = p1
        if abs(p1_new - p1) <= _P1_TOL * max(p, 1.0):
            p1 = p1_new
            break
        p1 = p1_new
    if ev.p1 != p1:
        (ev,) = yield [p1]
    achieved = ev.e11 + ev.e2
    tol_e = 1e-9 * max(1.0, e_eff)
    if achieved < e_eff - tol_e and not ctx.fixed:
        p1_rescued, rescued = yield from _rescue_steps(ctx, e_eff, n_max)
        if p1_rescued is not None:
            p1, ev = p1_rescued, rescued
        else:
            achieved = max(achieved, rescued)
        achieved = max(achieved, ev.e11 + ev.e2)
    if achieved < e_eff - tol_e:
        # reachability is genuinely not an interval for per-target beams:
        # some interior targets stay short at every P1
        raise InfeasibleTargetError(
            f"strategy {ctx.strategy!r} delivers {achieved!r} at target {e_bar!r}",
            max_attainable=achieved,
        )
    no_tx = p1 <= 1e-12 * max(p, 1.0)
    if no_tx:
        p1 = 0.0
        if ev.p1 != p1:
            (ev,) = yield [p1]
    diag = ev.diag
    branch = "NO_TX" if no_tx else diag.branch
    return REPoint(
        e_bar=e_bar,
        rate_bits=ev.rate_bits,
        energy=ev.e11 + ev.e2,
        p1=p1,
        branch=branch,
        iterations=iters,
        lam=diag.lam if branch == "DUAL" else None,
        mu=diag.mu if branch == "DUAL" else None,
        clamped=ev.clamped or e_bar > em,
        p3=diag,
    )


def _solve_many(jobs, n_max):
    """Boundary points of several strategy contexts, all in one lockstep.

    `jobs` lists (context, e_bars) pairs; the contexts share strategy, P,
    split and link shape, and each round evaluates the pending (e_bar, P1)
    pairs of every target of every context as one stacked batch.  Returns,
    per job, each target's REPoint or the SwiptError that stopped it.  Each
    context keeps its outcomes, so only targets it has not met before at
    this `n_max` are solved; the outcomes are shared, not copies.
    """
    keyed = [(ctx, [(float(e), n_max) for e in e_bars]) for ctx, e_bars in jobs]
    todo = list(
        dict.fromkeys(
            (ctx, key) for ctx, keys in keyed for key in keys if key not in ctx.solved
        )
    )
    if todo:
        ctxs = list(dict.fromkeys(ctx for ctx, _ in todo))
        ems = np.array(_emax_many(ctxs))
        ci = np.array([ctxs.index(ctx) for ctx, _ in todo])
        e_eff = np.minimum(np.array([e for _, (e, _) in todo]), ems[ci])
        st = _stack(ctxs)

        def evaluate(owners, p1s):
            evs = _evaluate_batch(st, ci[owners], e_eff[owners], np.array(p1s))
            return [evs.view(i) for i in range(len(p1s))]

        outs = _run_lockstep([_point_steps(ctx, e, n_max) for ctx, (e, _) in todo], evaluate)
        for (ctx, key), out in zip(todo, outs):
            ctx.solved[key] = out
    return [[ctx.solved[key] for key in keys] for ctx, keys in keyed]


def re_boundary_point(cs, strategy, e_bar, p, n_max=_N_MAX, split=0.5):
    """One point of the rate-energy boundary at energy target `e_bar`.

    Alternates the decoding user's floored rate problem with the power
    backoff at transmitter 1 until P1 moves less than 1e-8 * P or `n_max`
    rounds pass, then reports the achieved (rate, energy) pair.
    """
    ((out,),) = _solve_many([(_context(cs, strategy, p, split), [e_bar])], n_max)
    if isinstance(out, SwiptError):
        # the context keeps the error; raise a copy so its traceback is not grown
        raise copy.copy(out)
    return out


def re_sweep(cs, strategy, p, n_points=64, e_grid=None, n_max=_N_MAX, split=0.5):
    """Sweep the boundary over an energy grid (default: uniform on [0, emax]).

    Every grid target runs the same power-backoff alternation as
    `re_boundary_point`, all of them in lockstep: each round evaluates the
    pending (e_bar, P1) pairs of every target as one stacked batch; targets
    the orientation's shared context has already solved, possibly in a
    lockstep spanning both orientations (`scheduling.scheduled_run`), are
    reused.  Failed points become gap entries instead of aborting the sweep;
    a point whose rate a higher target's point beats is replaced by a copy
    of it (flagged `carried`), and the finished boundary is validated
    against its monotonicity invariants.
    """
    if e_grid is None and n_points < 2:
        raise InvalidInputError("n_points must be >= 2")
    ctx = _context(cs, strategy, p, split)
    em = ctx.emax()
    grid = np.linspace(0.0, em, n_points) if e_grid is None else np.asarray(e_grid, float)
    points = []
    gaps = []
    (outs,) = _solve_many([(ctx, grid)], n_max)
    for k, (e_bar, out) in enumerate(zip(grid, outs)):
        if isinstance(out, SwiptError):
            gaps.append((k, float(e_bar), str(out)))
            continue
        points.append(out)
    # a solution for a higher target over-delivers every lower target, so
    # carry it backward wherever it beats the lower target's own solution
    # (adaptive beams can land adjacent targets on different fixed points)
    for k in range(len(points) - 2, -1, -1):
        nxt = points[k + 1]
        if nxt.rate_bits > points[k].rate_bits:
            points[k] = dataclasses.replace(nxt, e_bar=points[k].e_bar, carried=True)
    boundary = REBoundary(
        points=points,
        strategy=strategy,
        channel_digest=channel_digest(cs),
        e_max=em,
        seed=cs.seed,
        gaps=gaps,
    )
    boundary.validate()
    return boundary


def time_sharing_curve(cs, strategy, p, weights=None, split=0.5):
    """Convex combinations of full-power beaming and transmitter-1 silence.

    Strategy picks transmitter 1's beam in the active slot (meb or mlb).
    Endpoint A: transmitter 1 at full power on its beam, transmitter 2
    beaming at the harvester.  Endpoint B: transmitter 1 off, transmitter 2
    water-filling.  Each weight tau in [0, 1] spends a tau fraction of time
    in slot A.
    """
    if strategy not in ("meb", "mlb"):
        raise InvalidInputError(f"time sharing supports meb or mlb, got {strategy!r}")
    ctx = _StrategyContext(cs, strategy, p, split)
    p = ctx.p
    fixed = ctx.consts
    r2 = np.eye(cs.m_r, dtype=np.complex128) + p * fixed["leak_fixed"]
    h22t = inv_sqrt_psd(hermitian_part(r2)) @ cs.h22
    _, _, v12 = svd(cs.h12)
    q2a = p * np.outer(v12[:, 0], v12[:, 0].conj())
    rate_a = float(_rate_bits(h22t, q2a))
    energy_a = p * fixed["kappa_fixed"] + p * fixed["sig12_max2"]
    q2b = waterfill(cs.h22, None, p)
    rate_b = float(_rate_bits(cs.h22, q2b.q))
    energy_b = float(np.einsum("ij,jk,ik->", cs.h12, q2b.q, cs.h12.conj()).real)
    if weights is None:
        weights = np.linspace(0.0, 1.0, 33)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or np.any(~np.isfinite(weights)) or np.any(
        (weights < 0) | (weights > 1)
    ):
        raise InvalidInputError("weights must be finite values in [0, 1]")
    points = []
    last_e = None
    for tau in np.sort(weights):
        energy = (1.0 - tau) * energy_b + tau * energy_a
        if last_e is not None and energy <= last_e:
            continue
        last_e = energy
        points.append(
            REPoint(
                e_bar=energy,
                rate_bits=(1.0 - tau) * rate_b + tau * rate_a,
                energy=energy,
                p1=tau * p,
                branch="TS",
                iterations=0,
            )
        )
    boundary = REBoundary(
        points=points,
        strategy=strategy,
        channel_digest=channel_digest(cs),
        e_max=energy_a,
        seed=cs.seed,
    )
    boundary.validate()
    return boundary
