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
`eigh` of the own link's Gram, scaled by the ray, fixes the transmit
directions and gains (`_Rays`), and the level 1/mu that spends the budget
is an exact weighted water-filling level, the smallest prefix level of the
ray's floors, which its descending gains give already sorted
(`beamformers._water_level`, the kernel the water-filling game shares).
Water-filling is the ray's point at rho = 0, and the DUAL branch is a single
scalar root: energy(rho) = E_floor.  A ray point's rate, energy and trace
follow from its gains and powers, log det(I + Ht Q Ht^H) = sum_k log(1 +
g_k p_k), so a covariance is assembled only where one is read.  At the cap
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
against that beam's interference through the k x k eigendecomposition of
(H21 F)^H H21 F (in closed form for one column), water-filling (the ray at
rho = 0 of the Gram of each distinct whitened link, formed once per batch).
A batch never roots: a DUAL row delivers its floor by construction, so the
batch defers it, and its record keeps its whitened link and Gram.  The
backoffs read only energies; the roots over rho (`_root_dual`,
`_ratio_roots`) run on the records alone, with nothing evaluated again, in
at most two root steps per lockstep: one over the rescue's scan, which
ranks its candidates by rate, and one over the targets whose latest record
is a deferred DUAL row once the backoffs end.  Each root is a step-for-step
port of scipy's brentq that also stops once its ray over-delivers by at
most 1e-13 max(1, floor), and each of their rounds is one stacked `eigh` of
the Grams of the rays all rows ask for.  `re_boundary_point` and
`solve_p3` run the same code with one target; `solve_p3` roots its row by
`_root_dual` too.

The endpoint e_max is the largest target that the backoff's first round,
at P1 = P, reaches (`_emax_many`), so every sweep's top target is reachable;
`time_sharing_curve` joins the points of a meb or mlb sweep at 0 and e_max.

One evaluation of an (E_bar, P1) pair is one `_EVAL` record:
`_solve_p3_batch` fills the floored rate solve (branch, ray evaluations,
multipliers, gap, energy, trace, rate, repair flags, water-filling's
energy), read off the ray's spectrum except at the cap and where an energy
shortfall is repaired, and `_evaluate_batch` adds transmitter 1's P1,
kappa, direct-link energy and clamp.  The records also hold a deferred DUAL
row's whitened link and Gram (`_held`), which `_root_dual` fills the row
from.  A target keeps the record of its latest evaluation; its published
point and its `P3Diagnostics` (`_diagnostics`) are read from that record
alone.

Each public entry point builds the strategy context (`_StrategyContext`)
of its channel orientation, strategy and P, and passes it down; a context
finds its e_max once.  Nothing is kept between calls.  Transmitter 1's beam
is a rule among the context's constants, which one table (`_BEAMS`) gives
each strategy: a fixed factor F or a ratio floor rule.

One lockstep may span several contexts that share rule kind, factor width,
P and link shape (`_solve_many`), such as both orientations of one channel,
or one channel's meb and mlb: every row of a round carries its context's
index and reads that context's constants, its rule's included, stacked once
per lockstep (`_stack`).  `_sweeps` sweeps one channel's strategies in one
lockstep per rule kind and factor width; one context is the one-context case.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .beamformers import (
    _energy_streams,
    _mode_floors,
    _ratio_directions,
    _ratio_factor,
    _water_level,
    check_strategy,
    meb,
    mlb,
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
    _LN2,
    TxCovariance,
    _beam_gain,
    _check_spectra,
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

# an energy short of its floor by more than this, relative to max(1, floor),
# is mixed toward the cross-link beam (`_repair`)
_SHORT_TOL = 1e-12

# top of the price-ray interval: rho <= (1 - margin) / cmax keeps 1 - rho c
# resolved in floating point
_RHO_MARGIN = 1e-12

# the ratio root stops as scipy.optimize.brentq does at these settings, or
# once a ray over-delivers by at most this much relative to max(1, e_req)
_XTOL = 1e-18
_RTOL = 8.9e-16
_MAXITER = 200
_ROOT_RESIDUAL = 1e-13


@dataclass
class P3Diagnostics:
    """How a single energy-floored rate maximization was resolved."""

    branch: str                # "WF", "DUAL" or "CAP"
    iterations: int            # ray evaluations (one eigh of the Gram each)
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


def _outer(v):
    """v v^H of a vector (m,), or of each row of a stack (n, m)."""
    return v[..., :, None] * v.conj()[..., None, :]


class _Rays:
    """Priced maximizers on the rays mu (I - rho G) at the level spending P,
    one per row of a stack (with one c for the stack, or one per row).

    For own link F = Ht W (in W's basis), its Gram A = F^H F and ratio rho,
    D = diag(d) = diag((1 - rho c)^{-1/2}); one `eigh` of D A D = V diag(g)
    V^H gives gains g_k (descending) and directions V, neither depending on
    mu.  With a_k = 1/g_k the trace is sum_k w_k (eta - a_k)^+ and the energy
    sum_k e_k (eta - a_k)^+, where w_k = sum_i |V_ik|^2 d_i^2 and e_k =
    sum_i |V_ik|^2 c_i d_i^2, so the level eta = 1/mu is exact: the floors
    ascend with the descending gains, and `_water_level` takes the smallest
    of their prefix levels with no sort.  A row with no gain raises
    DegenerateChannelError (`_mode_floors`), the game's check.  The
    covariance, in W's basis, is D V diag(powers) V^H D, and its rate
    log2 det(I + Ht Q Ht^H) is sum_k log2(1 + g_k powers_k) (`_ray_rates`).
    At rho = 0, d = 1 and the ray point is water-filling.
    """

    def __init__(self, a, c, rho, p):
        d2 = 1.0 / (1.0 - rho[:, None] * c)
        self.d = np.sqrt(d2)
        g, v = np.linalg.eigh(self.d[:, :, None] * a * self.d[:, None, :])
        # descending, as `_mode_floors` reads them; rounding below 0 is no gain
        self.gain = np.maximum(g[:, ::-1], 0.0)
        self.v = v[:, :, ::-1]
        floors = _mode_floors(self.gain)
        mag = np.abs(self.v) ** 2
        w = (d2[:, None, :] @ mag)[:, 0, :]
        eta = _water_level(floors, p, w)
        self.eta = eta[:, 0]
        self.powers = np.maximum(eta - floors, 0.0)
        col = self.powers[:, :, None]
        self.energy = ((c * d2)[:, None, :] @ mag @ col)[:, 0, 0]
        self.trace = (w[:, None, :] @ col)[:, 0, 0]


def _ray_rates(gain, powers):
    """log2 det(I + Ht Q Ht^H) in bits of stacked ray points, from their
    `_Rays` gains and powers."""
    return np.log1p(gain * powers).sum(axis=-1) / _LN2


def _ray_covariances(w, d, v, powers):
    """Transmit covariances of stacked ray points, in the antenna basis (each
    row with its own W)."""
    core = (v * powers[:, None, :]) @ v.conj().swapaxes(-1, -2)
    mid = (d[:, :, None] * core) * d[:, None, :]
    return hermitian_part(w @ mid @ w.conj().swapaxes(-1, -2))


def _repair(q, trace, energy, e_req, p, cap, v12):
    """Mix each covariance, within the power ball and short of its energy
    floor, toward the cross-link beam v12 (one for the stack, or one per
    row) until the floor holds.

    Returns the mixed (q, energy, trace).
    """
    shortfall = e_req - energy
    denom = cap - energy
    with np.errstate(divide="ignore", invalid="ignore"):
        wmix = np.where(denom <= 0.0, 1.0, np.minimum(shortfall / denom, 1.0))
    q = (1.0 - wmix)[:, None, None] * q + wmix[:, None, None] * (p * _outer(v12))
    trace = (1.0 - wmix) * trace + wmix * p
    energy = (1.0 - wmix) * energy + wmix * cap
    return q, energy, trace


def _ratio_roots(a, c, e_req, e_wf, rho_hi, p):
    """Roots of energy(rho) = e_req[i] on the price rays of a stack of targets.

    Row i has own-link Gram a[i] = (Ht W)^H Ht W, cross-link gains c[i] and
    top ratio rho_hi[i].  At rho = 0 the ray point is water-filling, whose
    energy e_wf[i] is short of the target; energy grows toward P cmax as rho
    approaches 1/cmax.  Each row runs its own `_brentq_steps` and ends at
    the first ray whose energy lies in [e_req, e_req + 1e-13 max(1, e_req)],
    or where brentq ends; each round evaluates the rays that every row asks
    for as one `_Rays` stack.
    Returns the roots, each row's ray evaluations, and the fields of the ray
    at each root (eta, d, v, gain, powers, trace, energy).
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

    tol = [_ROOT_RESIDUAL * max(1.0, e) for e in e_req]
    todo = list(range(n))
    while todo:
        rays.append(_Rays(a[todo], c[todo], np.array([ask[i] for i in todo]), p))
        for i, e in zip(todo, rays[-1].energy.tolist()):
            known[i][ask[i]] = len(energy)
            energy.append(e)
        waiting = []
        for i in todo:
            if root[i] is not None:
                continue
            gap = short(i, ask[i])
            if 0.0 <= gap <= tol[i]:
                # the ray over-delivers within the residual tolerance
                root[i] = ask[i]
                continue
            try:
                if steps[i] is not None:
                    x = steps[i].send(gap)
                elif gap < 0.0:
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
        for name in ("eta", "d", "v", "gain", "powers", "trace", "energy")
    }
    return np.array(root), np.array([len(k) for k in known]), SimpleNamespace(**picked)


# one evaluation of an (e_bar, P1) pair (see the module docstring): `branch`
# is the floored solve's WF, DUAL or CAP, lam and mu are nan where the branch
# reports none, e2 is receiver 2's energy, e11 = kappa * P1 the direct-link
# energy, `clamped` marks a floor left for transmitter 2 out of its reach,
# and e_wf is water-filling's energy (nan at the cap)
_EVAL = np.dtype(
    [(name, float) for name in ("p1", "kappa", "e11", "lam", "mu", "gap", "e2", "trace", "rate")]
    + [(name, bool) for name in ("clamped", "repaired", "rescaled")]
    + [("branch", "U4"), ("evals", int), ("e_wf", float)]
)


@functools.cache
def _held(m_r, m_t):
    """`_EVAL` for whitened links of shape (M_r, M_t), with what a deferred
    DUAL row's root reads besides its floor and e_wf: the link `ht` and its
    Gram in W's basis, `gram` (zero on every other row)."""
    return np.dtype(_EVAL.descr + [("ht", complex, (m_r, m_t)), ("gram", complex, (m_t, m_t))])


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


def _assembled(q, ht, p):
    """Covariances built from their parts, checked once as `TxCovariance`
    checks them, and their rates over the links ht: returns (q, rates)."""
    q = hermitian_part(q)
    check_covariances(q, p)
    return q, _rates(ht, q)


def _root_dual(rec, k, cross, p):
    """Solve the deferred DUAL rows k of the `_held` records `rec` in place:
    one `_ratio_roots` call over all of them.

    Row k[i] reads its floor from e2, where a deferred DUAL row reports it,
    water-filling's energy from e_wf, and its whitened link and that link's
    Gram (Ht W)^H Ht W from ht and gram; `cross` holds the row's
    `_cross_factor` (c, W, cmax, v12), one per row.  A root whose trace
    lands above P by rounding is scaled back on its spectrum; an energy
    short of the floor (no gain along the cross-link beam) is mixed toward
    the beam by `_repair`, the one DUAL covariance assembled.
    Returns the rays at the roots, the repaired rows (a mask over k) and
    their covariances.
    """
    c, w, cmax, v12 = cross
    e_req = rec["e2"][k]
    rho, rec["evals"][k], ray = _ratio_roots(
        rec["gram"][k], c, e_req, rec["e_wf"][k], (1.0 - _RHO_MARGIN) / cmax, p
    )
    over = ray.trace > p
    scale = np.where(over, p / ray.trace, 1.0)
    ray.powers *= scale[:, None]
    energy, trace = ray.energy * scale, np.where(over, p, ray.trace)
    rate = np.empty(k.size)
    short = e_req - energy > _SHORT_TOL * np.maximum(1.0, e_req)
    q = None
    if short.any():
        q, energy[short], trace[short] = _repair(
            _ray_covariances(w[short], ray.d[short], ray.v[short], ray.powers[short]),
            trace[short],
            energy[short],
            e_req[short],
            p,
            p * cmax[short],
            v12[short],
        )
        q, rate[short] = _assembled(q, rec["ht"][k[short]], p)
    if not short.all():
        _check_spectra(ray.powers[~short], trace[~short], p)
        rate[~short] = _ray_rates(ray.gain[~short], ray.powers[~short])
    rec["e2"][k], rec["trace"][k], rec["rate"][k] = energy, trace, rate
    rec["rescaled"][k], rec["repaired"][k] = over, short
    rec["gap"][k] = np.maximum(
        np.maximum(e_req - energy, 0.0) / np.maximum(1.0, e_req),
        np.maximum(trace - p, 0.0) / p,
    )
    rec["lam"][k] = rho / ray.eta
    rec["mu"][k] = 1.0 / ray.eta
    return ray, short, q


def _solve_p3_batch(ht, rows, e_req, p, cross):
    """`solve_p3` for a stack of targets, with its DUAL rows deferred.

    `ht` holds distinct own links (u, M_r, M_t), `rows` maps each target to
    its link, `e_req` holds floors already clipped to [0, P cmax], and
    `cross` holds each link's cross-link `_cross_factor`, stacked: c (u, M_t),
    W (u, M_t, M_t), cmax (u,) and v12 (u, M_t).  Each link's Gram
    (Ht W)^H Ht W is formed once; water-filling is its ray at rho = 0.  A
    WF or CAP row is solved here; a DUAL row is deferred: it reports its
    floor as e2, its rate nan and its multipliers unset, and its record
    keeps the link and Gram that `_root_dual` roots it from.  A row's rate,
    energy and trace are read off its ray; a covariance is assembled only at
    the cap, and only those pass `check_covariances` and `_rates` (every
    water-filling ray `_check_spectra`).
    Returns each target's `_held` record.
    """
    c, w, cmax, v12 = cross
    n = e_req.size
    cap = p * cmax[rows]
    rec = np.zeros(n, _held(*ht.shape[1:]))
    rec["lam"] = rec["mu"] = np.nan
    energy, trace, rate = rec["e2"], rec["trace"], rec["rate"]  # views: writes land in rec

    # at the cap the feasible set collapses onto the cross-link beam; the
    # dual pair diverges there, so return the beam directly (branch CAP)
    at_cap = e_req >= cap * (1.0 - 1e-10)
    k = np.flatnonzero(at_cap)
    if k.size:
        energy[k], trace[k] = cap[k], p
        rate[k] = _assembled(p * _outer(v12[rows[k]]), ht[rows[k]], p)[1]

    links = rows[~at_cap]
    if np.any(links[1:] <= links[:-1]):
        links = np.unique(links)
    slot = np.zeros(ht.shape[0], dtype=int)
    slot[links] = np.arange(links.size)
    e_wf = rec["e_wf"]
    e_wf[at_cap] = np.nan
    if links.size:
        f = ht[links] @ w[links]
        gram = f.conj().swapaxes(-1, -2) @ f
        wf_ray = _Rays(gram, c[links], np.zeros(links.size), p)
        _check_spectra(wf_ray.powers, wf_ray.trace, p)
        e_wf[~at_cap] = wf_ray.energy[slot[rows[~at_cap]]]
    wf = e_req <= e_wf
    k = np.flatnonzero(wf)
    if k.size:
        s = slot[rows[k]]
        energy[k], trace[k] = wf_ray.energy[s], wf_ray.trace[s]
        rate[k] = _ray_rates(wf_ray.gain[s], wf_ray.powers[s])

    k = np.flatnonzero(~at_cap & ~wf)
    if k.size:
        link = rows[k]
        energy[k], rate[k] = e_req[k], np.nan
        rec["ht"][k], rec["gram"][k] = ht[link], gram[slot[link]]
    rec["branch"] = np.where(at_cap, "CAP", np.where(wf, "WF", "DUAL"))
    return rec


def solve_p3(h22_tilde, h12, e_target, p):
    """Rate maximization for the decoding user under an energy floor.

    maximize log det(I + Ht Q Ht^H) s.t. tr(H12 Q H12^H) >= e_target,
    tr(Q) <= P, Q PSD.  If water-filling alone meets the floor it is
    returned (branch WF); a target at the cap P sigma_max(H12)^2 gets the
    cross-link beam at full power (branch CAP, no multipliers); otherwise one
    root over the ratio rho = lam / mu, with the water level 1/mu exact at
    each rho, resolves the two dual multipliers (branch DUAL), reported as
    lam = rho / eta and mu = 1 / eta.
    Water-filling is the price ray's point at rho = 0, and each ray costs
    one `eigh` of the own link's Gram (`_Rays`).  A trace above P by
    rounding is scaled back on the ray's spectrum (`rescaled`), and a
    residual energy shortfall is repaired by mixing toward the cross-link
    beam covariance (`repaired`).
    `P3Diagnostics.iterations` counts the root's ray evaluations, one
    `eigh` each (none on WF and CAP).

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
    cross = c, w, cmax, v12 = [np.array([a]) for a in _cross_factor(h12)]
    cap = p * float(cmax[0])
    if not _reaches(e_target, cap):
        raise InfeasibleTargetError(
            f"energy target {e_target!r} exceeds the deliverable maximum {cap!r}",
            max_attainable=cap,
        )
    one = np.zeros(1, dtype=int)
    rec = _solve_p3_batch(ht[None], one, np.array([min(e_target, cap)]), p, cross)
    branch = rec["branch"][0]
    # the returned covariance: the cap beam, water-filling (the ray at rho = 0
    # of the batch's Gram, formed alike) or the root's ray or repaired mix
    if branch == "CAP":
        q = hermitian_part(p * _outer(v12))
    elif branch == "WF":
        f = ht[None] @ w
        ray = _Rays(f.conj().swapaxes(-1, -2) @ f, c, np.zeros(1), p)
        q = _ray_covariances(w, ray.d, ray.v, ray.powers)
    else:
        ray, short, q = _root_dual(rec, one, cross, p)
        if not short[0]:
            q = _ray_covariances(w, ray.d, ray.v, ray.powers)
    (fields,) = _columns(rec, _P3_FIELDS)
    return TxCovariance(q[0], p), _diagnostics(*fields)


# ---------------------------------------------------------------------------
# strategy plumbing for transmitter 1


class _StrategyContext:
    """A channel orientation, P and the beam rule `_BEAMS` gives the strategy.

    `consts` holds what an evaluation reads per row, the rule's included (see
    `_stack`); the name is a label.  e_max is found once, on first use.
    """

    def __init__(self, cs, strategy, p):
        self.cs = cs
        self.strategy = check_strategy(strategy)
        self.p = _as_real(p, "power budget", positive=True)
        c, w, cmax, v12 = _cross_factor(cs.h12)
        self.consts = dict(h11=cs.h11, h21=cs.h21, h22=cs.h22, c=c, w=w, cmax=cmax, v12=v12)
        self.consts.update(_BEAMS[strategy](cs))
        self._emax = None

    def emax(self):
        """Largest reachable energy target for this strategy at full power."""
        return _emax_many([self])[0]


def _ratio_consts(h11, h21):
    """What every sler or slnr beam of the link pair (H11, H21) reads: both
    links, `h11_norm2` = ||H11||^2 and the `_ratio_factor` (lam, u, g)."""
    lam, u, g = _ratio_factor(h11, h21)
    return dict(h11=h11, h21=h21, h11_norm2=spectral_norm(h11) ** 2, lam=lam, u=u, g=g)


def _stack(ctxs):
    """The `consts` of the strategy contexts of one lockstep, each stacked
    along a leading context axis; an evaluation row reads its own context's
    entries by index.  The contexts share P and the names and shapes of
    their constants, so the rule's kind and a fixed factor's width; a fixed
    factor F or a ratio rule's (a, b, off) is a per-context entry.
    """
    first = ctxs[0]
    return SimpleNamespace(
        p=first.p, **{k: np.stack([ctx.consts[k] for ctx in ctxs]) for k in first.consts}
    )


def _unit_covs(st, ci, e_bars, p1s):
    """Factors F (n, M_t, k) of transmitter 1's unit-trace covariances
    W = F F^H at each (e_bar, P1) pair, row i in context ci[i] of the stack
    `st`, and their direct-link energy gains kappa = ||H11 F||_F^2.

    A ratio beam is the unit v that maximizes ||H11 v||^2 / (||H21 v||^2 +
    f ||v||^2) at its rule's floor f, with no phase fixed (W = v v^H does not
    depend on it): one small `eigh` per row against the context's
    factorization of H21^H H21 (`_ratio_factor`), and the energy beam as P1
    vanishes.
    """
    if hasattr(st, "f_fixed"):
        return st.f_fixed[ci], st.kappa_fixed[ci]
    v = st.meb_v[ci]
    hi = p1s > 1e-12 * st.p
    if hi.any():
        c = ci[hi]
        a, b, off = st.floor_rule[c].T
        floors = sler_floor(off, a * e_bars[hi] + b, p1s[hi])
        u = _unit_rows(_ratio_directions(st.lam[c], st.u[c], st.g[c], floors))
        check_unit_rows(u)
        v[hi] = u
    f = v[:, :, None]
    return f, _beam_gain(st.h11[ci], f)


def _whitened_links(st, ci, f, p1s):
    """H22~ = (I + U U^H)^{-1/2} H22 for each stacked pair, row i in context
    ci[i] of the stack `st`, with U = sqrt(P1) H21 F and F the beam factor.

    With U^H U = E diag(mu) E^H (k x k) and s = sqrt(1 + mu), the inverse
    square root is I - U E diag(g) E^H U^H, g = 1 / (s (1 + s)): no M_r x M_r
    factorization, and for a one-column F (every beam but meb_rank2's) no
    factorization at all: mu = U^H U and E = 1.  At P1 = 0, U = 0 and H22
    comes back as it is; as mu -> 0, g -> 1/2, so a beam in H21's null space
    stays finite.
    """
    h22 = st.h22[ci]
    u = np.sqrt(p1s)[:, None, None] * (st.h21[ci] @ f)
    gram = u.conj().swapaxes(-1, -2) @ u
    if f.shape[-1] == 1:
        # the 1 x 1 eigendecomposition in closed form, as LAPACK returns it:
        # mu = U^H U and E = 1
        mu, ue = gram.real[:, 0], u
    else:
        mu, e = np.linalg.eigh(gram)
        ue = u @ e
    s = np.sqrt(1.0 + mu)
    g = 1.0 / (s * (1.0 + s))
    return h22 - (ue * g[:, None, :]) @ (ue.conj().swapaxes(-1, -2) @ h22)


def _surplus(st, ci, e_bars):
    """g(E) = P kappa(E, P) + P cmax - E at each target (row i in context
    ci[i] of `st`): >= 0 where the full-power round leaves a floor in reach."""
    _, kappa = _unit_covs(st, ci, e_bars, np.full(e_bars.size, st.p))
    return st.p * kappa + st.p * st.cmax[ci] - e_bars


def _emax_many(ctxs):
    """`emax` of each strategy context; the contexts share P and their
    constants' names and shapes (see `_stack`).

    A fixed beam reaches P (kappa + cmax), cmax = sigma_max(H12)^2.  A
    ratio beam's e_max is the largest E with `_surplus` g(E) >= 0, where
    the backoff's first round (P1 = P) meets the target.  As kappa <=
    ||H11||^2, g >= 0 at P cmax and g <= 0 at P (||H11||^2 + cmax): one
    stacked `_EMAX_SCAN`-point scan finds each context's last point with
    g >= 0, and stacked Illinois steps close the bracket above it to 1e-12
    relative and return its end with g >= 0.
    """
    todo = [ctx for ctx in dict.fromkeys(ctxs) if ctx._emax is None]
    if todo:
        st = _stack(todo)
        found = st.p * (st.kappa_fixed + st.cmax) if hasattr(st, "f_fixed") else _reach_top(st)
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


def _mlb_factor(h11, h21):
    """mlb's factor: the least right singular vector of H21 (`mlb`), except
    where H21's null space has dimension 2 or more (M_t >= M_r + 2, every
    link having full rank).  There `mlb` returns whichever null direction
    LAPACK finds, so the beam takes the one with the most direct-link gain
    ||H11 v||^2, the ratio beams' zero-floor limit, which does not depend on
    the channel's basis."""
    if h21.shape[1] < h21.shape[0] + 2:
        return mlb(h21, 1.0).v[:, None]
    return _unit_rows(_ratio_directions(*_ratio_factor(h11, h21), [0.0])).T


def _fixed_beam(h11, f):
    """A fixed factor F (M_t x k) at every (e_bar, P1): kappa = ||H11 F||_F^2."""
    return dict(f_fixed=f, kappa_fixed=float(_beam_gain(h11, f)))


def _ratio_rule(cs, a, b, leak):
    """The ratio beam (`_unit_covs`) at sler_floor(leak ||H11||^2, a e_bar + b, P1)."""
    consts = _ratio_consts(cs.h11, cs.h21)
    return dict(consts, meb_v=meb(cs.h11, 1.0).v, floor_rule=(a, b, leak * consts["h11_norm2"]))


def _energy_factor(h11, split):
    """meb_rank2's factor: H11's top two right singular vectors, split in power."""
    split, v1, v2 = _energy_streams(h11, split)
    return np.stack((math.sqrt(split) * v1, math.sqrt(1.0 - split) * v2), axis=1)


# each strategy's beam rule for a channel orientation cs; a ratio rule
# (a, b, leak) gives sler its `sler_floor` and slnr the floor M_r / P1
_BEAMS = {
    "meb": lambda cs: _fixed_beam(cs.h11, meb(cs.h11, 1.0).v[:, None]),
    "mlb": lambda cs: _fixed_beam(cs.h11, _mlb_factor(cs.h11, cs.h21)),
    "meb_rank2": lambda cs: _fixed_beam(cs.h11, _energy_factor(cs.h11, 0.5)),
    "sler": lambda cs: _ratio_rule(cs, 1.0, 0.0, 1.0),
    "slnr": lambda cs: _ratio_rule(cs, 0.0, float(cs.h11.shape[0]), 0.0),
}


def emax(cs, strategy, p):
    """Right boundary endpoint: the largest energy any sweep can target."""
    return _StrategyContext(cs, strategy, p).emax()


def _evaluate_batch(st, ci, e_bars, p1s):
    """Evaluate every (e_bar, P1) pair in one stacked pass: transmitter 1's
    beam, the whitened link H22~ it leaves for receiver 2, and the floored
    rate solve at the energy still missing, its DUAL rows deferred
    (`_solve_p3_batch`).  Row i belongs to context ci[i] of the stack `st`
    (see `_stack`) and reads that context's links.  Unless a rule reads
    e_bar (a ratio rule with a != 0), each distinct (context, P1) pair's
    beam and H22~ are evaluated once.  Returns each row's `_held` record."""
    if hasattr(st, "floor_rule") and st.floor_rule[:, 0].any():
        ci_u, p1_u, rows, e_u = ci, p1s, np.arange(p1s.size), e_bars
    else:
        # complex keys P1 + i ctx sort by P1, then context
        keys, first, rows = np.unique(p1s + 1j * ci, return_index=True, return_inverse=True)
        ci_u, p1_u, e_u = keys.imag.astype(int), keys.real, e_bars[first]
    f, kappa_u = _unit_covs(st, ci_u, e_u, p1_u)
    ht = _whitened_links(st, ci_u, f, p1_u)
    kappa = kappa_u[rows]
    e11 = kappa * p1s
    cap = st.p * st.cmax[ci]
    e_need = e_bars - e11
    clamped = e_need > cap * (1.0 + _FEAS_SLACK)
    e_need = np.minimum(np.maximum(e_need, 0.0), cap)
    cross = [st.c[ci_u], st.w[ci_u], st.cmax[ci_u], st.v12[ci_u]]
    rec = _solve_p3_batch(ht, rows, e_need, st.p, cross)
    rec["p1"], rec["kappa"], rec["e11"], rec["clamped"] = p1s, kappa, e11, clamped
    return rec


class _Aitken:
    """Each target's next P1 in the power backoff, with a guarded Aitken step.

    The plain map x -> T(x) = (E_bar - e2) / kappa, clipped to [0, P] with
    every value at or below zero set to exactly 0.0 (so never -0.0), moves
    a target whose evaluation over-delivers with kappa > 0; any other target
    stays at its P1; a DUAL evaluation meets its floor, so it never counts
    as over-delivering.  The map converges linearly, at a ratio that
    settles early.
    Once two successive contraction ratios r = dT / dx of a target's plain
    steps agree within 2%, with 0 < r < 0.95, its next evaluation goes to
    x* + 0.03 (T - x*), where x* = T + r / (1 - r) (T - x) extrapolates the
    fixed point: short of it, on the over-delivering side.  An accelerated
    evaluation that does not over-deliver, one that lands on DUAL included,
    is reverted: the plain step T(x) it replaced is evaluated next, and two
    more plain steps must agree before the next Aitken step.  The rescue's
    backoff starts a new state.
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
        over = (ev["e11"] + ev["e2"] > e_eff) & (ev["kappa"] > 0.0) & (ev["branch"] != "DUAL")
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

    `jobs` lists (context, e_bars) pairs; the contexts share rule kind, factor
    width, P and link shape (see `_stack`).  Each distinct (context, e_bar)
    pair is one target, solved once.  Each step evaluates the (e_bar, P1)
    pairs of every target that takes it as one stacked batch
    (`_evaluate_batch`), which defers its DUAL rows: a batch never roots.
    The steps are

    * the power backoff: from P1 = P, alternate the floored rate solve with
      P1 = (E_bar - cross energy) / kappa until P1 moves less than
      1e-8 * max(P, 1) or 20 rounds pass; a target whose P1 settled away
      from its last evaluation is evaluated there in one more round.  The
      next P1 may be a guarded Aitken step (`_Aitken`); a reverted step
      counts as a round;
    * the stall rescue.  A ratio beam stops tilting toward the energy
      subspace once its own power covers the harvesting floor, so delivered
      energy is not monotone in P1: it can dip below the target at full power
      while an interior P1 still reaches it (a fixed beam's energy grows
      with P1).  Each target still short scans `_RESCUE_SCAN` P1 values in
      one batch, roots the scan's DUAL rows (it ranks its candidates by
      rate), keeps its first best-rate candidate that reaches the target,
      and backs off from there, with the same Aitken steps, while the target
      stays reached;
    * one finishing root step.  The backoffs read energies only, and a
      DUAL row meets its floor, so the targets whose latest record is a
      deferred DUAL row are rooted together: no beam, whitening or
      water-filling is evaluated again.

    Both root steps are one `_root_dual` call on the whitened links and
    Grams that the records keep.  A point whose settled P1 is exactly 0.0,
    which the backoff and the scan both reach, is published as NO_TX.  If a
    batch or a root call raises a SwiptError, its rows are evaluated, or
    rooted from their records, one at a time, and each target whose row
    raises takes the error.  Returns a dict that maps each pair to its
    REPoint or to the SwiptError that stopped it.
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

    latest = np.zeros(len(todo), _held(*st.h22.shape[1:]))

    def fail(k, exc):
        """Target k takes the error, unless an earlier one stopped it."""
        if not failed[k]:
            out[k], failed[k] = exc, True

    def evaluate(ks, p1s):
        """Target ks[i] evaluated at P1 p1s[i], in one batch or, if it
        raises, one row at a time: returns the targets and their records,
        without the targets whose row raised, which take the error."""
        try:
            rec = _evaluate_batch(st, ci[ks], e_eff[ks], p1s)
        except SwiptError:
            rec = np.zeros(ks.size, latest.dtype)
            for i, k in enumerate(ks.tolist()):
                one = slice(k, k + 1)
                try:
                    rec[i] = _evaluate_batch(st, ci[one], e_eff[one], p1s[i : i + 1])[0]
                except SwiptError as exc:
                    fail(k, exc)
        ok = ~failed[ks]
        return ks[ok], rec[ok]

    def root(ks, rec):
        """Root in place the deferred DUAL rows of the records `rec`, rec[i]
        target ks[i]'s, whose targets have not failed: one `_root_dual` call
        or, if it raises, one per row, and each target whose row raises takes
        the error.  Returns the targets and records that have not failed."""
        due = np.flatnonzero(~failed[ks] & np.isnan(rec["rate"]))

        def call(rows):
            cd = ci[ks[rows]]
            _root_dual(rec, rows, [st.c[cd], st.w[cd], st.cmax[cd], st.v12[cd]], p)

        if due.size:
            try:
                call(due)
            except SwiptError:
                for i in due.tolist():
                    try:
                        call(np.array([i]))
                    except SwiptError as exc:
                        fail(ks[i], exc)
        ok = ~failed[ks]
        return ks[ok], rec[ok]

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
    if short.any():
        live = np.flatnonzero(short)
        scan = np.linspace(0.0, p, _RESCUE_SCAN)
        live, ev = root(*evaluate(np.repeat(live, scan.size), np.tile(scan, live.size)))
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
    # the targets that end on a deferred DUAL row are rooted together, from
    # the links and Grams their records keep
    root(np.arange(len(todo)), latest)

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


def re_boundary_point(cs, strategy, e_bar, p):
    """One point of the rate-energy boundary at energy target `e_bar`.

    Alternates the decoding user's floored rate problem with the power
    backoff at transmitter 1, accelerated by guarded Aitken steps, until P1
    moves less than 1e-8 * max(P, 1) or 20 rounds pass (`iterations`, which
    counts a reverted Aitken step too), rescues an adaptive beam that stalls
    short, and reports the achieved (rate, energy) pair: the one-target case
    of `_solve_many`.
    """
    e_bar = _as_real(e_bar, "e_bar")
    (out,) = _solve_many([(_StrategyContext(cs, strategy, p), [e_bar])]).values()
    if isinstance(out, SwiptError):
        raise out
    return out


def re_sweep(cs, strategy, p, n_points=64, e_grid=None):
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
        e_grid = _as_reals(e_grid, "e_grid")
        if e_grid.ndim != 1:
            raise InvalidInputError("e_grid must be 1-D")
        if np.any(np.diff(e_grid) <= 0.0):
            raise InvalidInputError("e_grid must be strictly increasing")
    return _sweeps(cs, [strategy], p, n_points, e_grid)[0]


def _sweeps(cs, strategies, p, n_points, e_grid=None):
    """`re_sweep` of each strategy of one channel orientation, on its own
    grid or on the checked `e_grid`: one `_solve_many` lockstep per rule kind
    and factor width (see `_stack`), such as meb with mlb and slnr with sler."""
    jobs, locksteps = [], {}
    for strategy in strategies:
        ctx = _StrategyContext(cs, strategy, p)
        jobs.append((ctx, _grid([ctx], n_points) if e_grid is None else e_grid))
        shapes = tuple((k, getattr(v, "shape", ())) for k, v in ctx.consts.items())
        locksteps.setdefault(shapes, []).append(jobs[-1])
    solved = {k: v for group in locksteps.values() for k, v in _solve_many(group).items()}
    return [_sweep_boundary(ctx, grid, solved) for ctx, grid in jobs]


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
