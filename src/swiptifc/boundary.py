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
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .beamformers import (
    check_strategy,
    meb,
    meb_rank2,
    mlb,
    sler_beam,
    slnr_beam,
    water_level,
    waterfill,
)
from .channel import channel_digest
from .exceptions import (
    DualInfeasibleError,
    InfeasibleTargetError,
    InvalidInputError,
    InvariantViolationError,
    SingularMatrixError,
    SwiptError,
)
from .linalg import as_matrix, hermitian_eig, hermitian_part, inv_sqrt_psd, svd
from .metrics import TxCovariance, canonical_beam

__all__ = [
    "P3Diagnostics",
    "REPoint",
    "REBoundary",
    "Lemma1Result",
    "emax",
    "inner_max",
    "solve_p3",
    "re_boundary_point",
    "re_sweep",
    "time_sharing_curve",
    "lemma1_transform",
]

_LN2 = float(np.log(2.0))

# outer loop defaults
_N_MAX = 20
_P1_TOL = 1e-8

# accepted relative overshoot of an energy target before declaring infeasibility
_FEAS_SLACK = 1e-9

# top of the price-ray interval: rho <= (1 - margin) / cmax keeps 1 - rho c
# resolved in floating point
_RHO_MARGIN = 1e-12


@dataclass
class P3Diagnostics:
    """How a single energy-floored rate maximization was resolved."""

    branch: str                # "WF" or "DUAL"
    method: str
    iterations: int            # inner evaluations spent
    lam: float | None
    mu: float | None
    gap: float                 # worst relative residual after repair
    energy: float
    trace: float
    rate_bits: float
    repaired: bool = False


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


@dataclass
class Lemma1Result:
    """Invertible input transform T aligning the cross link with identity.

    U_g^H H_own T = diag(sigma_g) and V_g^H H_cross T = I hold within 1e-8;
    the achieved residuals are stored.
    """

    t: np.ndarray
    u_g: np.ndarray
    v_g: np.ndarray
    sigma_g: np.ndarray
    residual_own: float
    residual_cross: float


# ---------------------------------------------------------------------------
# inner problem: maximize log det(I + Ht Q Ht^H) - tr((mu I - lam G) Q)


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


@dataclass
class _RayPoint:
    """Priced maximizer on the ray mu (I - rho G) at the level spending P.

    In W's basis the covariance is D V diag(powers) V^H D, with D =
    diag(d) = diag((1 - rho c)^{-1/2}) and V the right singular vectors of
    F D; eta = 1/mu is the water level.
    """

    eta: float
    energy: float
    trace: float
    d: np.ndarray
    vh: np.ndarray
    powers: np.ndarray


class _P3Kernel:
    """Shared factorizations for repeated inner evaluations.

    G = H12^H H12 = W diag(c) W^H is factored once per cross link; for any
    (lam, mu) the price matrix is diagonal in W's basis, so each inner
    evaluation (`inner` at a fixed pair, `ray` at a fixed ratio) costs a
    single small SVD of F diag(s) with F = Ht W and s = (mu - lam c)^{-1/2}.
    """

    def __init__(self, h22_tilde, h12):
        self.ht = as_matrix(h22_tilde, "h22_tilde")
        h12 = as_matrix(h12, "h12")
        if h12.shape[1] != self.ht.shape[1]:
            raise InvalidInputError(
                f"transmit dims differ: h22_tilde {self.ht.shape}, h12 {h12.shape}"
            )
        self.c, self.w, self.cmax, self.v12 = _cross_factor(h12.shape, h12.tobytes())
        self.f = self.ht @ self.w
        self.evals = 0

    def inner(self, lam, mu, want_q=False):
        """Closed-form maximizer of the priced rate objective."""
        a_diag = mu - lam * self.c
        if a_diag.min() <= 0.0:
            raise DualInfeasibleError(
                f"price matrix not PD: mu={mu!r}, lam*cmax={lam * self.cmax!r}"
            )
        self.evals += 1
        s = 1.0 / np.sqrt(a_diag)
        u0, sig, v0h = np.linalg.svd(self.f * s[None, :], full_matrices=False)
        ptil = np.maximum(1.0 - 1.0 / np.maximum(sig**2, 1e-300), 0.0)
        core = (v0h.conj().T * ptil[None, :]) @ v0h
        diag = np.maximum(core.diagonal().real, 0.0)
        trace = float(np.sum(s**2 * diag))
        energy = float(np.sum(self.c * s**2 * diag))
        rate_nats = float(np.sum(np.log(np.maximum(sig**2, 1.0))))
        q = None
        if want_q:
            mid = (s[:, None] * core) * s[None, :]
            q = hermitian_part(self.w @ mid @ self.w.conj().T)
        return trace, energy, rate_nats, q

    def ray(self, rho, p):
        """Inner maximizer on the price ray mu (I - rho G), 0 <= rho < 1/cmax,
        with mu fixed by tr(Q) = P.

        One SVD of F D gives gains sig_k and directions V, neither depending
        on mu.  With a_k = 1/sig_k^2, the trace is sum_k w_k (eta - a_k)^+ and
        the energy sum_k e_k (eta - a_k)^+, where w_k = sum_i |V_ik|^2 d_i^2
        and e_k = sum_i |V_ik|^2 c_i d_i^2, so the level eta = 1/mu is exact.
        """
        d2 = 1.0 / (1.0 - rho * self.c)
        d = np.sqrt(d2)
        self.evals += 1
        _, sig, vh = np.linalg.svd(self.f * d[None, :], full_matrices=False)
        gain = sig**2
        # modes below the rounding floor of the strongest gain carry no power
        keep = gain > gain[0] * 1e-15
        mag = np.abs(vh[keep]) ** 2
        w = mag @ d2
        a = 1.0 / gain[keep]
        eta = water_level(a, p, w)
        powers = np.maximum(eta - a, 0.0)
        return _RayPoint(
            eta=eta,
            energy=float(powers @ (mag @ (self.c * d2))),
            trace=float(powers @ w),
            d=d,
            vh=vh[keep],
            powers=powers,
        )

    def ray_covariance(self, pt):
        """Transmit covariance of a ray point, in the antenna basis."""
        core = (pt.vh.conj().T * pt.powers[None, :]) @ pt.vh
        mid = (pt.d[:, None] * core) * pt.d[None, :]
        return hermitian_part(self.w @ mid @ self.w.conj().T)

    def cross_energy(self, q):
        """tr(H12 Q H12^H) through the cached factorization."""
        wq = self.w.conj().T @ q @ self.w
        return float(np.sum(self.c * wq.diagonal().real))


def _rate_bits(ht, q):
    s = ht @ q @ ht.conj().T
    _, logdet = np.linalg.slogdet(
        np.eye(ht.shape[0], dtype=np.complex128) + hermitian_part(s)
    )
    return max(float(logdet) / _LN2, 0.0)


def inner_max(a, h22_tilde):
    """Maximizer of log det(I + Ht Q Ht^H) - tr(A Q) over PSD Q.

    A must be Hermitian PD; with the SVD Ht A^{-1/2} = U Sigma V^H the
    solution is A^{-1/2} V diag((1 - 1/sigma_i^2)^+) V^H A^{-1/2}.
    """
    a = as_matrix(a, "a")
    try:
        ai = inv_sqrt_psd(a)
    except SingularMatrixError as exc:
        raise DualInfeasibleError(f"price matrix is not PD: {exc}") from None
    ht = as_matrix(h22_tilde, "h22_tilde")
    b = ht @ ai
    _, sig, v = svd(b)
    ptil = np.zeros(b.shape[1])
    ptil[: sig.size] = np.maximum(1.0 - 1.0 / np.maximum(sig**2, 1e-300), 0.0)
    q = ai @ ((v * ptil[None, :]) @ v.conj().T) @ ai
    q = hermitian_part(q)
    return TxCovariance(q, float(np.trace(q).real) + 1e-12)


def solve_p3(h22_tilde, h12, e_target, p, method="bisection", t_max=2000):
    """Rate maximization for the decoding user under an energy floor.

    maximize log det(I + Ht Q Ht^H) s.t. tr(H12 Q H12^H) >= e_target,
    tr(Q) <= P, Q PSD.  If water-filling alone meets the floor it is
    returned (branch WF); otherwise the two dual multipliers are resolved
    (branch DUAL).  The default "bisection" method brackets one root over
    the ratio rho = lam / mu, with the water level 1/mu exact at each rho,
    and reports lam = rho / eta and mu = 1 / eta; "subgradient" runs the
    projected subgradient schedule instead.  Any residual energy shortfall
    is repaired by mixing toward the cross-link beam covariance.
    `P3Diagnostics.iterations` counts the SVDs spent.

    Returns (TxCovariance, P3Diagnostics).
    """
    p = float(p)
    if not np.isfinite(p) or p <= 0:
        raise InvalidInputError(f"power budget must be positive, got {p!r}")
    e_target = float(e_target)
    if not np.isfinite(e_target):
        raise InvalidInputError("e_target must be finite")
    if method not in ("bisection", "subgradient"):
        raise InvalidInputError(f"unknown method {method!r}")
    kern = _P3Kernel(h22_tilde, h12)
    cap = p * kern.cmax
    if e_target > cap * (1.0 + _FEAS_SLACK) + 1e-12:
        raise InfeasibleTargetError(
            f"energy target {e_target!r} exceeds the deliverable maximum {cap!r}",
            max_attainable=cap,
        )
    e_req = min(max(e_target, 0.0), cap)

    if e_req >= cap * (1.0 - 1e-10):
        # at the cap the feasible set collapses onto the cross-link beam;
        # the dual pair diverges there, so return the beam directly
        q = p * np.outer(kern.v12, kern.v12.conj())
        diag = P3Diagnostics(
            branch="DUAL",
            method=method,
            iterations=0,
            lam=None,
            mu=None,
            gap=0.0,
            energy=cap,
            trace=p,
            rate_bits=_rate_bits(kern.ht, q),
        )
        return TxCovariance(q, p), diag

    q_wf = waterfill(kern.ht, None, p)
    e_wf = kern.cross_energy(q_wf.q)
    if e_req <= e_wf:
        diag = P3Diagnostics(
            branch="WF",
            method=method,
            iterations=kern.evals,
            lam=None,
            mu=None,
            gap=0.0,
            energy=e_wf,
            trace=q_wf.trace,
            rate_bits=_rate_bits(kern.ht, q_wf.q),
        )
        return q_wf, diag

    if method == "subgradient":
        return _solve_p3_subgradient(kern, e_req, p, t_max)
    return _solve_p3_ray(kern, e_req, p, e_wf)


def _repair(kern, q, trace, energy, e_req, p):
    """Scale into the power ball, then mix toward the cross-link beam until
    the energy floor holds.  Returns (q, energy, trace, repaired)."""
    repaired = False
    if trace > p:
        q = q * (p / trace)
        energy *= p / trace
        trace = p
        repaired = True
    shortfall = e_req - energy
    if shortfall > 1e-12 * max(1.0, e_req):
        beam_energy = p * kern.cmax
        denom = beam_energy - energy
        if denom <= 0.0:
            wmix = 1.0
        else:
            wmix = min(shortfall / denom, 1.0)
        qb = p * np.outer(kern.v12, kern.v12.conj())
        q = (1.0 - wmix) * q + wmix * qb
        trace = (1.0 - wmix) * trace + wmix * p
        energy = (1.0 - wmix) * energy + wmix * beam_energy
        repaired = True
    return q, energy, trace, repaired


def _solve_p3_ray(kern, e_req, p, e_wf):
    """Root of energy(rho) = e_req along the price ray mu (I - rho G).

    At rho = 0 the ray point is water-filling, whose energy e_wf is short of
    the target; energy grows toward p * cmax as rho approaches 1/cmax.
    """
    rays = {}

    def shortfall(rho):
        if rho == 0.0:
            return e_wf - e_req
        if rho not in rays:
            rays[rho] = kern.ray(rho, p)
        return rays[rho].energy - e_req

    rho_hi = (1.0 - _RHO_MARGIN) / kern.cmax
    if shortfall(rho_hi) < 0.0:
        # no gain along the cross-link beam: repair closes the gap
        rho_star = rho_hi
    else:
        rho_star = scipy.optimize.brentq(
            shortfall, 0.0, rho_hi, xtol=1e-18, rtol=8.9e-16, maxiter=200
        )
    # a target within rounding of e_wf can return the endpoint rho = 0
    pt = rays[rho_star] if rho_star in rays else kern.ray(rho_star, p)
    q, energy, trace, repaired = _repair(
        kern, kern.ray_covariance(pt), pt.trace, pt.energy, e_req, p
    )
    gap = max(
        max(e_req - energy, 0.0) / max(1.0, e_req),
        max(trace - p, 0.0) / p,
    )
    diag = P3Diagnostics(
        branch="DUAL",
        method="bisection",
        iterations=kern.evals,
        lam=float(rho_star / pt.eta),
        mu=float(1.0 / pt.eta),
        gap=gap,
        energy=energy,
        trace=trace,
        rate_bits=_rate_bits(kern.ht, q),
        repaired=repaired,
    )
    return TxCovariance(hermitian_part(q), p), diag


def _solve_p3_subgradient(kern, e_req, p, t_max):
    """Projected subgradient on (lam, mu) with an a/sqrt(t) schedule,
    keeping the best repaired-feasible primal seen along the way."""
    a = 0.1 * max(1.0, p)
    lam = 0.0
    mu = lam * kern.cmax + 1.0
    best = None
    steps = 0
    for t in range(1, t_max + 1):
        steps = t
        mu = max(mu, lam * kern.cmax + 1e-9 * (1.0 + lam * kern.cmax))
        trace, energy, _, q = kern.inner(lam, mu, want_q=True)
        qf, ef, trf, repaired = _repair(kern, q, trace, energy, e_req, p)
        rate = _rate_bits(kern.ht, qf)
        if best is None or rate > best[0]:
            gap = max(max(e_req - ef, 0.0) / max(1.0, e_req), max(trf - p, 0.0) / p)
            best = (rate, qf, ef, trf, lam, mu, repaired, gap)
        r_e = energy - e_req
        r_p = p - trace
        if abs(r_e) <= 1e-5 * max(1.0, e_req) and abs(r_p) <= 1e-5 * max(1.0, p):
            break
        step = a / math.sqrt(t)
        lam = max(lam - step * r_e, 0.0)
        mu = max(mu - step * r_p, 0.0)
    rate, qf, ef, trf, lam_b, mu_b, repaired, gap = best
    diag = P3Diagnostics(
        branch="DUAL",
        method="subgradient",
        iterations=steps,
        lam=float(lam_b),
        mu=float(mu_b),
        gap=gap,
        energy=ef,
        trace=trf,
        rate_bits=rate,
        repaired=repaired,
    )
    return TxCovariance(hermitian_part(qf), p), diag


# ---------------------------------------------------------------------------
# strategy plumbing for transmitter 1


class _StrategyContext:
    """Cached per-channel quantities plus the beam family of one strategy."""

    def __init__(self, cs, strategy, p, split=0.5):
        check_strategy(strategy)
        self.cs = cs
        self.strategy = strategy
        self.p = float(p)
        if not np.isfinite(self.p) or self.p <= 0:
            raise InvalidInputError(f"power budget must be positive, got {p!r}")
        self.split = split
        _, s12, _ = svd(cs.h12)
        self.sig12_max2 = float(s12[0] ** 2)
        self._w_fixed = None
        if strategy == "meb":
            v = meb(cs.h11, 1.0).v
            self._w_fixed = np.outer(v, v.conj())
        elif strategy == "mlb":
            v = mlb(cs.h21, 1.0).v
            self._w_fixed = np.outer(v, v.conj())
        elif strategy == "meb_rank2":
            self._w_fixed = meb_rank2(cs.h11, 1.0, split).q
        if self._w_fixed is not None:
            self._kappa_fixed = self._kappa_of(self._w_fixed)
        self._emax = None

    def _kappa_of(self, w_unit):
        h = self.cs.h11
        return float(np.einsum("ij,jk,ik->", h, w_unit, h.conj()).real)

    def unit_cov(self, e_bar, p1):
        """Unit-trace covariance structure of transmitter 1 at (e_bar, p1)
        and its direct-link energy gain kappa."""
        if self._w_fixed is not None:
            return self._w_fixed, self._kappa_fixed
        if p1 <= 1e-12 * self.p:
            # vanishing power: both adaptive beams collapse to the pure
            # energy beam (their denominators are dominated by the floor)
            v = meb(self.cs.h11, 1.0).v
        elif self.strategy == "sler":
            v = sler_beam(self.cs.h11, self.cs.h21, e_bar, p1).v
        else:
            v = slnr_beam(self.cs.h11, self.cs.h21, p1).v
        w = np.outer(v, v.conj())
        return w, self._kappa_of(w)

    def emax(self):
        """Largest reachable energy target for this strategy at full power."""
        if self._emax is not None:
            return self._emax
        p = self.p
        if self._w_fixed is not None:
            e = p * (self._kappa_fixed + self.sig12_max2)
        else:
            # self-consistent target: the adaptive beam at e_max must itself
            # deliver e_max; iterate from the energy-beam level
            _, s11, _ = svd(self.cs.h11)
            kappa = float(s11[0] ** 2)
            hard = p * (kappa + self.sig12_max2)
            e = hard
            for _ in range(32):
                _, kappa = self.unit_cov(e, p)
                e_new = p * (kappa + self.sig12_max2)
                if abs(e_new - e) <= 1e-12 * max(1.0, e):
                    e = e_new
                    break
                e = e_new
            e = self._pin_endpoint(min(e, hard), hard)
        self._emax = e
        return e

    def _pin_endpoint(self, e, hard):
        # the map e -> p * (kappa(e, p) + sig12^2) can have slope > 1 at its
        # fixed point, so forward iteration may cycle instead of converging;
        # bisect delivered-minus-target to a value the sweep can actually hit
        tol = 1e-9 * max(1.0, e)

        def surplus(target):
            ev, _ = _evaluate(self, target, self.p)
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


def emax(cs, strategy, p, split=0.5):
    """Right boundary endpoint: the largest energy any sweep can target."""
    return _StrategyContext(cs, strategy, p, split).emax()


@dataclass
class _Evaluation:
    p1: float
    kappa: float
    e11: float
    e2: float
    rate_bits: float
    diag: P3Diagnostics
    clamped: bool


def _evaluate(ctx, e_bar, p1):
    cs = ctx.cs
    w_unit, kappa = ctx.unit_cov(e_bar, p1)
    e11 = kappa * p1
    if p1 > 0.0:
        r2 = np.eye(cs.m_r, dtype=np.complex128) + p1 * (cs.h21 @ w_unit @ cs.h21.conj().T)
        h22t = inv_sqrt_psd(hermitian_part(r2)) @ cs.h22
    else:
        h22t = cs.h22
    e_need = e_bar - e11
    cap = ctx.p * ctx.sig12_max2
    clamped = e_need > cap * (1.0 + _FEAS_SLACK)
    e_need = min(max(e_need, 0.0), cap)
    q2, diag = solve_p3(h22t, cs.h12, e_need, ctx.p)
    return _Evaluation(
        p1=p1,
        kappa=kappa,
        e11=e11,
        e2=diag.energy,
        rate_bits=diag.rate_bits,
        diag=diag,
        clamped=clamped,
    ), q2


def _rescue_stall(ctx, e_eff, n_max):
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
    for cand in np.linspace(0.0, p, 33):
        ev, _ = _evaluate(ctx, e_eff, float(cand))
        max_seen = max(max_seen, ev.e11 + ev.e2)
        if ev.e11 + ev.e2 >= e_eff - tol:
            if best is None or ev.rate_bits > best[1].rate_bits:
                best = (float(cand), ev)
    if best is None:
        return None, max_seen
    p1, ev = best
    for _ in range(n_max):
        if not (ev.e11 + ev.e2 > e_eff and ev.kappa > 0.0):
            break
        p1_new = min(max((e_eff - ev.e2) / ev.kappa, 0.0), p)
        if abs(p1_new - p1) <= _P1_TOL * max(p, 1.0):
            break
        ev_new, _ = _evaluate(ctx, e_eff, p1_new)
        if ev_new.e11 + ev_new.e2 < e_eff - tol:
            break
        p1, ev = p1_new, ev_new
    return p1, ev


def re_boundary_point(cs, strategy, e_bar, p, n_max=_N_MAX, split=0.5, _ctx=None):
    """One point of the rate-energy boundary at energy target `e_bar`.

    Alternates the decoding user's floored rate problem with the power
    backoff at transmitter 1 until P1 moves less than 1e-8 * P or `n_max`
    rounds pass, then reports the achieved (rate, energy) pair.
    """
    ctx = _ctx if _ctx is not None else _StrategyContext(cs, strategy, p, split)
    em = ctx.emax()
    e_bar = float(e_bar)
    if not np.isfinite(e_bar) or e_bar < 0:
        raise InvalidInputError(f"e_bar must be finite nonnegative, got {e_bar!r}")
    if e_bar > em * (1.0 + _FEAS_SLACK) + 1e-12:
        raise InfeasibleTargetError(
            f"energy target {e_bar!r} exceeds e_max {em!r} for strategy {strategy!r}",
            max_attainable=em,
        )
    e_eff = min(e_bar, em)
    p = ctx.p
    p1 = p
    ev = None
    iters = 0
    for iters in range(1, n_max + 1):
        ev, _q2 = _evaluate(ctx, e_eff, p1)
        if ev.e11 + ev.e2 > e_eff and ev.kappa > 0.0:
            p1_new = min(max((e_eff - ev.e2) / ev.kappa, 0.0), p)
        else:
            p1_new = p1
        if abs(p1_new - p1) <= _P1_TOL * max(p, 1.0):
            p1 = p1_new
            break
        p1 = p1_new
    if ev.p1 != p1:
        ev, _q2 = _evaluate(ctx, e_eff, p1)
    achieved = ev.e11 + ev.e2
    tol_e = 1e-9 * max(1.0, e_eff)
    if achieved < e_eff - tol_e and ctx._w_fixed is None:
        p1_rescued, rescued = _rescue_stall(ctx, e_eff, n_max)
        if p1_rescued is not None:
            p1, ev = p1_rescued, rescued
        else:
            achieved = max(achieved, rescued)
        achieved = max(achieved, ev.e11 + ev.e2)
    if achieved < e_eff - tol_e:
        # reachability is genuinely not an interval for per-target beams:
        # some interior targets stay short at every P1
        raise InfeasibleTargetError(
            f"strategy {strategy!r} delivers {achieved!r} at target {e_bar!r}",
            max_attainable=achieved,
        )
    no_tx = p1 <= 1e-12 * max(p, 1.0)
    if no_tx:
        p1 = 0.0
        if ev.p1 != p1:
            ev, _q2 = _evaluate(ctx, e_eff, p1)
    branch = "NO_TX" if no_tx else ev.diag.branch
    return REPoint(
        e_bar=e_bar,
        rate_bits=ev.rate_bits,
        energy=ev.e11 + ev.e2,
        p1=p1,
        branch=branch,
        iterations=iters,
        lam=ev.diag.lam if branch == "DUAL" else None,
        mu=ev.diag.mu if branch == "DUAL" else None,
        clamped=ev.clamped or e_bar > em,
    )


def re_sweep(cs, strategy, p, n_points=64, e_grid=None, n_max=_N_MAX, split=0.5):
    """Sweep the boundary over an energy grid (default: uniform on [0, emax]).

    Failed points become gap entries instead of aborting the sweep; the
    finished boundary is validated against its monotonicity invariants.
    """
    if e_grid is None and n_points < 2:
        raise InvalidInputError("n_points must be >= 2")
    ctx = _StrategyContext(cs, strategy, p, split)
    em = ctx.emax()
    grid = np.linspace(0.0, em, n_points) if e_grid is None else np.asarray(e_grid, float)
    points = []
    gaps = []
    for k, e_bar in enumerate(grid):
        try:
            pt = re_boundary_point(
                cs, strategy, float(e_bar), p, n_max=n_max, split=split, _ctx=ctx
            )
        except SwiptError as exc:
            gaps.append((k, float(e_bar), str(exc)))
            continue
        points.append(pt)
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
    w_unit, kappa = ctx.unit_cov(None, p)
    r2 = np.eye(cs.m_r, dtype=np.complex128) + p * (cs.h21 @ w_unit @ cs.h21.conj().T)
    h22t = inv_sqrt_psd(hermitian_part(r2)) @ cs.h22
    _, _, v12 = svd(cs.h12)
    q2a = p * np.outer(v12[:, 0], v12[:, 0].conj())
    rate_a = _rate_bits(h22t, q2a)
    energy_a = p * kappa + p * ctx.sig12_max2
    q2b = waterfill(cs.h22, None, p)
    rate_b = _rate_bits(cs.h22, q2b.q)
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


def lemma1_transform(h_own, h_cross):
    """Invertible T with U_g^H H_own T diagonal and V_g^H H_cross T = I.

    Built from the thin QR of the stacked pair and one SVD: with
    [H_own; H_cross] = [Qa; Qb] R and Qa = U_g S_a W^H, the columns of Qb W
    are orthogonal with norms sqrt(1 - s_a_i^2), giving V_g by normalization
    and T = R^{-1} W diag(1/s_b).  Requires H_cross of full column rank.
    """
    h_own = as_matrix(h_own, "h_own")
    h_cross = as_matrix(h_cross, "h_cross")
    if h_own.shape != h_cross.shape:
        raise InvalidInputError("h_own and h_cross must share a shape")
    m_r, m_t = h_own.shape
    if m_r < m_t:
        raise InvalidInputError("needs at least as many receive as transmit antennas")
    qq, rr = np.linalg.qr(np.vstack((h_own, h_cross)))
    qa, qb = qq[:m_r], qq[m_r:]
    u_g, s_a, wh = np.linalg.svd(qa)
    w = wh.conj().T
    s_a = np.clip(s_a, 0.0, 1.0)
    s_b = np.sqrt(np.maximum(1.0 - s_a**2, 0.0))
    if s_b.min() <= 1e-12:
        raise SingularMatrixError(
            "cross link is rank deficient in a direction where the own link saturates"
        )
    cols = (qb @ w) / s_b[None, :]
    if m_r == m_t:
        v_g = cols
    else:
        # complete the orthonormal columns to a full unitary basis
        proj = np.eye(m_r, dtype=np.complex128) - cols @ cols.conj().T
        wp, vp = np.linalg.eigh(hermitian_part(proj))
        v_g = np.hstack((cols, vp[:, wp > 0.5]))
    t = scipy.linalg.solve(rr, w) / s_b[None, :]
    sigma_g = s_a / s_b
    target = np.zeros((m_r, m_t))
    target[np.arange(m_t), np.arange(m_t)] = sigma_g
    res_own = float(np.linalg.norm(u_g.conj().T @ h_own @ t - target))
    res_cross = float(
        np.linalg.norm(v_g.conj().T @ h_cross @ t - np.eye(m_r, m_t))
    )
    return Lemma1Result(
        t=t,
        u_g=u_g,
        v_g=v_g,
        sigma_g=sigma_g,
        residual_own=res_own,
        residual_cross=res_cross,
    )
