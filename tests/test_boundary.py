"""Tests for the rate-energy boundary solver and its supporting pieces."""

import sys
import warnings

import numpy as np
import pytest

from swiptifc import boundary
from swiptifc import (
    ChannelSet,
    DegenerateChannelError,
    InfeasibleTargetError,
    InvalidInputError,
    InvariantViolationError,
    REBoundary,
    REPoint,
    achievable_rate,
    draw_channel_set,
    emax,
    channel_digest,
    mlb,
    re_boundary_point,
    re_sweep,
    scheduled_run,
    sler_beam,
    slnr_beam,
    solve_p3,
    swap_roles,
    time_sharing_curve,
    waterfill,
)
from swiptifc.beamformers import _mode_floors, water_level
from swiptifc.linalg import inv_sqrt_psd
from swiptifc.metrics import _rates, check_covariances
from swiptifc.oracle import P3Problem, inner_max

ALPHA = np.array([[1.0, 0.8], [0.8, 1.0]])


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _toy_cs():
    """Hand-built 2x2 set with h11 = diag(2, 1) and identity other links."""
    eye = np.eye(2, dtype=complex)
    return ChannelSet(
        h11=np.diag([2.0, 1.0]).astype(complex),
        h12=eye.copy(),
        h21=eye.copy(),
        h22=eye.copy(),
        alpha=np.array([[2.5, 1.0], [1.0, 1.0]]),
        m_t=2,
        m_r=2,
    )


def _scalar_cs():
    one = np.array([[1.0]], dtype=complex)
    return ChannelSet(
        h11=one.copy(),
        h12=one.copy(),
        h21=one.copy(),
        h22=one.copy(),
        alpha=np.ones((2, 2)),
        m_t=1,
        m_r=1,
    )


def _primal(ht, h12, e_req, p, q):
    return float(P3Problem(ht, h12, e_target=e_req, p=p).objective(q.q[None])[0])


def _dual_value(ht, h12, e_req, p, diag):
    """Lagrange dual value (nats) at the reported (lam, mu), through the
    closed-form inner maximizer."""
    a = diag.mu * np.eye(ht.shape[1]) - diag.lam * (h12.conj().T @ h12)
    q_in = inner_max(a, ht)
    inner_val = _primal(ht, h12, e_req, p, q_in) - float(np.trace(a @ q_in.q).real)
    return inner_val + diag.mu * p - diag.lam * e_req


class TestEmax:
    def test_scalar_all_ones(self):
        cs = _scalar_cs()
        for strategy in ("meb", "mlb", "sler", "slnr"):
            assert emax(cs, strategy, 3.0) == pytest.approx(6.0, rel=1e-9)

    def test_toy_meb(self):
        assert emax(_toy_cs(), "meb", 1.0) == pytest.approx(5.0, rel=1e-9)

    def test_mlb_below_meb_census(self):
        for seed in range(1000):
            cs = draw_channel_set(2, 2, ALPHA, seed=seed)
            lo = emax(cs, "mlb", 4.0)
            hi = emax(cs, "meb", 4.0)
            assert lo <= hi * (1.0 + 1e-9)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidInputError):
            emax(_toy_cs(), "mrt", 1.0)


def _context(cs, strategy, p, split=0.5):
    """A strategy context; meb_rank2's at power split `split`.  The beam
    table builds the even split only, so another split's beam is rebuilt
    from meb_rank2's factor constructor."""
    ctx = boundary._StrategyContext(cs, strategy, p)
    if strategy == "meb_rank2":
        ctx.consts.update(boundary._fixed_beam(cs.h11, boundary._energy_factor(cs.h11, split)))
    return ctx


def _split_sweep(cs, p, split, n_points):
    """A meb_rank2 sweep at another power split: the public entry points
    sweep the even split only, so this builds the private context."""
    ctx = _context(cs, "meb_rank2", p, split)
    grid = boundary._grid([ctx], n_points)
    return boundary._sweep_boundary(ctx, grid, boundary._solve_many([(ctx, grid)]))


def _g(cs, strategy, e_bar, p):
    """P kappa(E, P) + P sigma_max(H12)^2 - E, from the public beams: the
    energy transmitter 2 can add beyond the floor that transmitter 1's
    full-power beam leaves it."""
    if strategy == "sler":
        v = sler_beam(cs.h11, cs.h21, e_bar, p).v
    else:
        v = slnr_beam(cs.h11, cs.h21, p).v
    sig12 = np.linalg.svd(cs.h12, compute_uv=False)[0]
    return p * np.linalg.norm(cs.h11 @ v) ** 2 + p * sig12**2 - e_bar


class TestEndpointReach:
    """e_max is the largest target the first (full-power) backoff round
    reaches, and the top target of every sweep is reachable."""

    @pytest.mark.parametrize(
        "m, a, seed, p, target",
        [
            (2, 0.8, 55, 0.1, 0.2246),
            (4, 0.7, 32, 50.0, 171.55),
        ],
    )
    def test_sler_reaches_above_settled_fixed_point(self, m, a, seed, p, target):
        cs = draw_channel_set(m, m, [[1.0, a], [a, 1.0]], seed)
        assert emax(cs, "sler", p) >= target
        pt = re_boundary_point(cs, "sler", target, p)
        # delivered to rounding: e11 + e2 may sit an ulp below the target
        assert pt.energy >= target * (1.0 - 1e-12)

    @pytest.mark.parametrize("strategy", ["sler", "slnr"])
    @pytest.mark.parametrize("p", [50.0, 0.1])
    def test_emax_reachable_and_last(self, strategy, p):
        for seed in range(4):
            cs = draw_channel_set(3, 3, ALPHA, seed)
            top = emax(cs, strategy, p)
            pt = re_boundary_point(cs, strategy, top, p)
            assert pt.energy >= top * (1.0 - 1e-9)
            hi = p * (
                np.linalg.norm(cs.h11, 2) ** 2 + np.linalg.norm(cs.h12, 2) ** 2
            )
            scan = np.linspace(top * (1.0 + 1e-9), hi, 64)
            assert all(_g(cs, strategy, e, p) < 0.0 for e in scan)

    @pytest.mark.parametrize("strategy", ["meb", "mlb"])
    def test_time_sharing_ends_are_sweep_ends(self, strategy):
        cs = draw_channel_set(3, 3, ALPHA, seed=74)
        sweep = re_sweep(cs, strategy, 4.0, n_points=8)
        ts = time_sharing_curve(sweep, weights=[0.0, 1.0])
        for end, pt in ((ts.points[0], sweep.points[0]), (ts.points[-1], sweep.points[-1])):
            assert (end.rate_bits, end.energy, end.p1) == (pt.rate_bits, pt.energy, pt.p1)
        assert ts.e_max == sweep.points[-1].energy
        # the sweep's top point is transmitter 1 at full power, to rounding
        assert sweep.points[-1].p1 == pytest.approx(4.0, rel=1e-12)


class TestSolveP3:
    def _links(self, seed, m=3):
        cs = draw_channel_set(m, m, ALPHA, seed=seed)
        return cs.h22, cs.h12

    def test_zero_target_is_waterfilling(self):
        h22t, h12 = self._links(31)
        p = 4.0
        q, diag = solve_p3(h22t, h12, 0.0, p)
        assert diag.branch == "WF"
        assert np.allclose(q.q, waterfill(h22t, None, p).q, atol=1e-8)

    def test_cap_target_is_energy_beam(self):
        h22t, h12 = self._links(32)
        p = 4.0
        _, s, v = np.linalg.svd(h12)
        cap = p * s[0] ** 2
        q, diag = solve_p3(h22t, h12, cap, p)
        beam = p * np.outer(v.conj().T[:, 0], v.conj().T[:, 0].conj())
        assert np.linalg.norm(q.q - beam) / p < 1e-4
        assert diag.branch == "CAP"
        assert diag.lam is None and diag.mu is None

    def test_above_cap_raises_with_bound(self):
        h22t, h12 = self._links(33)
        p = 2.0
        cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
        with pytest.raises(InfeasibleTargetError) as exc:
            solve_p3(h22t, h12, 1.5 * cap, p)
        assert exc.value.max_attainable == pytest.approx(cap, rel=1e-9)

    def test_rejects_mismatched_transmit_dims(self):
        h22t, h12 = self._links(33)
        with pytest.raises(InvalidInputError, match="transmit dims differ"):
            solve_p3(h22t[:, :1], h12, 0.1, 2.0)

    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
    def test_zero_own_link_raises_without_warning(self, frac):
        # the rays check for gain before filling, as the game does, so no
        # inf - inf is formed on the way to the error; the water-filling ray
        # is formed at every target, the cap's included
        _, h12 = self._links(34)
        cap = 2.0 * np.linalg.svd(h12, compute_uv=False)[0] ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateChannelError, match="no mode to fill"):
                solve_p3(np.zeros_like(h12), h12, frac * cap, 2.0)

    def test_energy_met_and_budget_respected(self):
        for seed in range(20):
            h22t, h12 = self._links(100 + seed)
            p = 5.0
            cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
            for frac in (0.2, 0.5, 0.8, 0.99):
                q, diag = solve_p3(h22t, h12, frac * cap, p)
                e = float(np.trace(h12 @ q.q @ h12.conj().T).real)
                assert e >= frac * cap * (1.0 - 1e-8)
                assert q.trace <= p * (1.0 + 1e-9)

    def test_beats_mixture_family(self):
        # convex mixes of water-filling and the energy beam are all feasible
        # once they meet the floor; the solver must do at least as well
        for seed in range(10):
            h22t, h12 = self._links(200 + seed)
            p = 3.0
            prob_cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
            e_req = 0.6 * prob_cap
            q, diag = solve_p3(h22t, h12, e_req, p)
            prob = P3Problem(h22t, h12, e_target=e_req, p=p)
            q_wf = waterfill(h22t, None, p).q
            _, _, v = np.linalg.svd(h12)
            beam = p * np.outer(v.conj().T[:, 0], v.conj().T[:, 0].conj())
            best = -np.inf
            for tau in np.linspace(0.0, 1.0, 41):
                cand = tau * beam + (1.0 - tau) * q_wf
                if bool(prob.feasible(cand[None])[0]):
                    best = max(best, float(prob.objective(cand[None])[0]))
            got = float(prob.objective(q.q[None])[0])
            assert got >= best - 1e-6

    def test_beats_random_feasible_search(self):
        h22t, h12 = self._links(41)
        p = 2.0
        cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
        e_req = 0.5 * cap
        q, _ = solve_p3(h22t, h12, e_req, p)
        prob = P3Problem(h22t, h12, e_target=e_req, p=p)
        rng = np.random.default_rng(7)
        best = -np.inf
        for _ in range(40):
            a = _cgauss(rng, 3, 3)
            cand = a @ a.conj().T
            cand *= p / np.trace(cand).real
            if bool(prob.feasible(cand[None])[0]):
                best = max(best, float(prob.objective(cand[None])[0]))
        got = float(prob.objective(q.q[None])[0])
        assert got >= best - 1e-3

    def test_weak_duality(self):
        # primal value never exceeds the Lagrange dual at the solver's
        # reported multipliers
        for seed in range(10):
            h22t, h12 = self._links(300 + seed)
            p = 4.0
            cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
            e_req = 0.7 * cap
            q, diag = solve_p3(h22t, h12, e_req, p)
            if diag.lam is None:
                continue
            g = h12.conj().T @ h12
            a = diag.mu * np.eye(3) - diag.lam * g
            q_in = inner_max(a, h22t)
            prob = P3Problem(h22t, h12, e_target=e_req, p=p)
            inner_val = float(prob.objective(q_in.q[None])[0]) - float(
                np.trace(a @ q_in.q).real
            )
            dual = inner_val + diag.mu * p - diag.lam * e_req
            primal = float(prob.objective(q.q[None])[0])
            assert primal <= dual + 1e-5


def _cross_energy(c, w, q):
    """tr(H12 Q H12^H) of each Q of a stack, through the factorization of G
    (one (c, W) for the stack, or one per Q)."""
    wq = w.conj().swapaxes(-1, -2) @ q @ w
    return np.sum(c * np.diagonal(wq, axis1=-2, axis2=-1).real, axis=-1)


def _gram(ht, w):
    """The own-link Gram (Ht W)^H Ht W that `_Rays` factors."""
    f = ht @ w
    return f.conj().T @ f


def _ray(ht, c, w, rho, p):
    """The `_Rays` point of one own link at ratio rho (0: water-filling)."""
    return boundary._Rays(_gram(ht, w)[None], c, np.array([rho]), p)


class TestRatioRoot:
    """The DUAL branch: one root over rho = lam / mu on the price ray."""

    def _cases(self):
        rng = np.random.default_rng(2024)
        cases = []
        for m_r, m_t in ((2, 4), (1, 3), (4, 2), (3, 1)):
            cases.append((_cgauss(rng, m_r, m_t), _cgauss(rng, m_r, m_t)))
        for rank, m in ((1, 3), (2, 4)):
            ht = _cgauss(rng, m, rank) @ _cgauss(rng, rank, m)
            cases.append((ht, _cgauss(rng, m, m)))
        return cases

    def test_budget_energy_and_rate(self):
        p = 3.0
        for ht, h12 in self._cases():
            cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
            for frac in (0.3, 0.7, 0.95, 1.0 - 1e-9):
                e_req = frac * cap
                q, diag = solve_p3(ht, h12, e_req, p)
                energy = float(np.trace(h12 @ q.q @ h12.conj().T).real)
                assert abs(q.trace - p) <= 1e-12 * p
                assert energy >= e_req * (1.0 - 1e-12)
                assert diag.iterations <= 64
                if diag.lam is not None:
                    # duality-gap certificate: the dual value at the reported
                    # pair closes on the primal rate
                    assert _dual_value(ht, h12, e_req, p, diag) - _primal(
                        ht, h12, e_req, p, q
                    ) <= 1e-6

    def test_target_one_ulp_above_waterfilling(self):
        p = 4.0
        for seed in range(5):
            cs = draw_channel_set(3, 3, ALPHA, seed=450 + seed)
            c, w, _, _ = boundary._cross_factor(cs.h12)
            e_wf = float(_ray(cs.h22, c, w, 0.0, p).energy[0])
            e_req = float(np.nextafter(e_wf, np.inf))
            q, diag = solve_p3(cs.h22, cs.h12, e_req, p)
            assert diag.branch == "DUAL"
            assert diag.energy >= e_req * (1.0 - 1e-12)
            assert q.trace == pytest.approx(p, rel=1e-12)

    def test_energy_monotone_along_ray(self):
        p = 4.0
        for seed in range(10):
            cs = draw_channel_set(3, 3, ALPHA, seed=400 + seed)
            c, w, cmax, _ = boundary._cross_factor(cs.h12)
            top = (1.0 - boundary._RHO_MARGIN) / cmax
            rhos = np.sort(
                np.concatenate(
                    (np.linspace(0.0, top, 120), top * (1.0 - np.logspace(-2, -11, 40)))
                )
            )
            a = np.broadcast_to(_gram(cs.h22, w), (rhos.size, 3, 3))
            energies = boundary._Rays(a, c, rhos, p).energy
            assert np.all(np.diff(energies) >= -1e-12 * p * cmax)

    def test_no_gain_along_cross_beam(self):
        # the own link is blind to the cross-link beam e0, so the energy
        # along the ray stays short and the beam mix closes the gap; the
        # optimum keeps q11 = (12 - e) / 3 on the one rate-carrying mode
        h12 = np.diag([2.0, 1.0]).astype(complex)
        ht = np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex)
        p = 3.0
        for e_req in (4.0, 8.0, 11.0):
            q, diag = solve_p3(ht, h12, e_req, p)
            assert diag.branch == "DUAL" and diag.repaired
            assert q.trace == pytest.approx(p, rel=1e-12)
            assert diag.energy >= e_req * (1.0 - 1e-12)
            want = np.log2(1.0 + 2.0 * (12.0 - e_req) / 3.0)
            assert diag.rate_bits == pytest.approx(want, rel=1e-9)

    def test_strong_duality_at_reported_pair(self):
        # lam = rho / eta and mu = 1 / eta keep their meaning: the dual value
        # at the reported pair closes on the primal rate
        for seed in range(5):
            cs = draw_channel_set(3, 3, ALPHA, seed=500 + seed)
            p = 4.0
            cap = p * np.linalg.svd(cs.h12, compute_uv=False)[0] ** 2
            e_req = 0.7 * cap
            q, diag = solve_p3(cs.h22, cs.h12, e_req, p)
            assert diag.branch == "DUAL" and not diag.repaired
            a = diag.mu * np.eye(3) - diag.lam * (cs.h12.conj().T @ cs.h12)
            q_in = inner_max(a, cs.h22)
            prob = P3Problem(cs.h22, cs.h12, e_target=e_req, p=p)
            inner_val = float(prob.objective(q_in.q[None])[0]) - float(
                np.trace(a @ q_in.q).real
            )
            dual = inner_val + diag.mu * p - diag.lam * e_req
            primal = float(prob.objective(q.q[None])[0])
            assert abs(dual - primal) <= 1e-9

    def test_lockstep_root_matches_brentq(self):
        # the same rays, one target at a time through scipy's brentq: a root
        # ends where its ray over-delivers within the residual tolerance, or
        # where brentq's x-tolerance ends it, and its rate is brentq's
        from scipy.optimize import brentq

        p = 4.0
        for seed in range(4):
            cs = draw_channel_set(4, 3, ALPHA, seed=600 + seed)
            c, w, cmax, _ = boundary._cross_factor(cs.h12)
            e_wf = float(_ray(cs.h22, c, w, 0.0, p).energy[0])
            rho_hi = (1.0 - boundary._RHO_MARGIN) / cmax
            targets = e_wf + (p * cmax - e_wf) * np.array([1e-6, 0.2, 0.5, 0.8, 0.99])
            a = _gram(cs.h22, w)
            n = targets.size
            roots, counts, ray = boundary._ratio_roots(
                np.broadcast_to(a, (n,) + a.shape),
                np.broadcast_to(c, (n,) + c.shape),
                targets,
                np.full(n, e_wf),
                np.full(n, rho_hi),
                p,
            )
            ws = np.broadcast_to(w, (n,) + w.shape)
            q = boundary._ray_covariances(ws, ray.d, ray.v, ray.powers)
            rates = _rates(np.broadcast_to(cs.h22, (n,) + cs.h22.shape), q)
            for e_req, rho, evals, energy, rate in zip(targets, roots, counts, ray.energy, rates):

                def shortfall(r):
                    if r == 0.0:
                        return e_wf - e_req
                    return float(_ray(cs.h22, c, w, r, p).energy[0]) - e_req

                want = brentq(shortfall, 0.0, rho_hi, xtol=1e-18, rtol=8.9e-16, maxiter=200)
                at = _ray(cs.h22, c, w, want, p)
                q_want = boundary._ray_covariances(w[None], at.d, at.v, at.powers)
                rate_want = _rates(cs.h22[None], q_want)[0]
                assert 0.0 <= energy - e_req <= 1e-13 * max(1.0, e_req) or abs(
                    rho - want
                ) <= 1e-18 + 8.9e-16 * abs(want)
                assert abs(rate - rate_want) <= 1e-12 * rate_want
                assert 2 <= evals <= 64

    def test_residual_stop_saves_rays(self):
        # a root ends once its ray over-delivers within 1e-13 max(1, e_req):
        # never more rays than brentq's evaluations past rho = 0, and fewer
        # on most targets
        from scipy.optimize import brentq

        p = 4.0
        cs = draw_channel_set(4, 3, ALPHA, seed=610)
        c, w, cmax, _ = boundary._cross_factor(cs.h12)
        e_wf = float(_ray(cs.h22, c, w, 0.0, p).energy[0])
        rho_hi = (1.0 - boundary._RHO_MARGIN) / cmax
        targets = e_wf + (p * cmax - e_wf) * np.linspace(0.05, 0.95, 10)
        a = _gram(cs.h22, w)
        n = targets.size
        _, counts, ray = boundary._ratio_roots(
            np.broadcast_to(a, (n,) + a.shape),
            np.broadcast_to(c, (n,) + c.shape),
            targets,
            np.full(n, e_wf),
            np.full(n, rho_hi),
            p,
        )
        saved = 0
        for e_req, evals, energy in zip(targets, counts, ray.energy):
            rays = []

            def shortfall(r, e_req=e_req):
                if r == 0.0:
                    return e_wf - e_req
                rays.append(r)
                return float(_ray(cs.h22, c, w, r, p).energy[0]) - e_req

            brentq(shortfall, 0.0, rho_hi, xtol=1e-18, rtol=8.9e-16, maxiter=200)
            assert evals <= len(rays)
            if evals < len(rays):
                assert 0.0 <= energy - e_req <= 1e-13 * max(1.0, e_req)
                saved += 1
        assert saved >= n // 2

    def test_brentq_port_step_for_step(self):
        from scipy.optimize import brentq

        funcs = (
            lambda x: x**3 - 2.0 * x - 5.0,
            lambda x: np.exp(x) - 3.0,
            lambda x: np.tanh(40.0 * (x - 0.3)),
            lambda x: (x - 1.0) ** 5,
        )
        for fun in funcs:
            calls = []

            def counted(x, fun=fun):
                calls.append(x)
                return fun(x)

            want = brentq(counted, 0.0, 3.0, xtol=1e-18, rtol=8.9e-16, maxiter=200)
            steps = boundary._brentq_steps(0.0, 3.0)
            seen = [next(steps)]
            try:
                while True:
                    seen.append(steps.send(float(fun(seen[-1]))))
            except StopIteration as stop:
                got = stop.value
            assert got == want
            assert seen == calls

    def test_cross_link_factored_once(self, monkeypatch):
        # one cross-link eigendecomposition per solve_p3 call and per strategy
        # context, however many targets the context's sweep solves
        calls = []
        real = boundary.hermitian_eig

        def counting(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(boundary, "hermitian_eig", counting)
        cs = draw_channel_set(3, 3, ALPHA, seed=77)
        cap = 2.0 * np.linalg.svd(cs.h12, compute_uv=False)[0] ** 2
        for scale in (1.0, 0.5, 2.0):
            solve_p3(scale * cs.h22, cs.h12, 0.8 * cap, 2.0)
        assert len(calls) == 3
        p = 5.0
        calls.clear()
        a = re_sweep(cs, "meb_rank2", p, n_points=6)
        b = _split_sweep(cs, p, 0.2, 6)
        c = re_sweep(cs, "meb_rank2", 2 * p, n_points=6)
        assert len(calls) == 3
        calls.clear()
        scheduled_run(cs, p, n_points=6)
        assert len(calls) == 2
        # the split and P reach the context: each gives its own curve
        assert a.e_max == emax(cs, "meb_rank2", p)
        assert b.e_max != a.e_max and c.e_max != a.e_max
        assert [pt.rate_bits for pt in a.points] != [pt.rate_bits for pt in b.points]


class TestRepairFlags:
    def _inputs(self, trace, energy):
        q = np.eye(2, dtype=complex)[None] * (trace / 2.0)
        return q, np.array([trace]), np.array([energy])

    def test_rescale_is_not_a_repair(self, monkeypatch):
        # a root ray whose trace lands one rounding step over P is scaled
        # back on its spectrum, not repaired
        real = boundary._ratio_roots
        p = 5.0

        def over(*args):
            rho, evals, ray = real(*args)
            f = (1.0 + 1e-15) * p / ray.trace
            ray.powers *= f[:, None]
            ray.energy *= f
            ray.trace *= f
            return rho, evals, ray

        cs = draw_channel_set(3, 3, ALPHA, seed=5)
        target = 0.7 * p * np.linalg.svd(cs.h12, compute_uv=False)[0] ** 2
        q_plain, plain = solve_p3(cs.h22, cs.h12, target, p)
        assert plain.branch == "DUAL" and not (plain.rescaled or plain.repaired)
        monkeypatch.setattr(boundary, "_ratio_roots", over)
        q, diag = solve_p3(cs.h22, cs.h12, target, p)
        assert diag.rescaled and not diag.repaired
        assert diag.trace == p
        assert np.trace(q.q).real == pytest.approx(p, rel=1e-14)
        assert diag.energy == pytest.approx(plain.energy, rel=1e-14)
        assert diag.rate_bits == pytest.approx(plain.rate_bits, rel=1e-14)
        # the returned covariance is the scaled ray's
        assert np.abs(q.q - q_plain.q).max() <= 1e-14 * p

    def test_shortfall_is_a_repair(self):
        p = 3.0
        q, tr, en = self._inputs(p, 2.0)
        v12 = np.array([1.0, 0.0], dtype=complex)
        q2, e2, t2 = boundary._repair(q, tr, en, np.array([4.0]), p, 6.0, v12)
        # mixing weight (4 - 2) / (6 - 2) toward the beam meets the floor
        assert e2[0] == pytest.approx(4.0, rel=1e-15)
        assert np.trace(q2[0]).real == pytest.approx(p, rel=1e-15)

    def test_rounding_rescales_on_real_channels(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=1)
        p = 5.0
        cap = p * np.linalg.svd(cs.h12, compute_uv=False)[0] ** 2
        flags = []
        for frac in np.linspace(0.05, 0.99, 40):
            _, diag = solve_p3(cs.h22, cs.h12, frac * cap, p)
            flags.append((diag.rescaled, diag.repaired))
        assert any(r for r, _ in flags)
        assert not any(rep for _, rep in flags)


class TestSpectralRecords:
    """A ray point's rate, energy and trace are read off the spectrum of its
    Gram: they equal what its assembled covariance gives."""

    @staticmethod
    def _close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [0.1, 50.0])
    @pytest.mark.parametrize("m_r,m_t", [(2, 2), (4, 4), (3, 4), (4, 3)])
    def test_records_match_assembled_covariances(self, m_r, m_t, p):
        rng = np.random.default_rng(10 * m_r + m_t)
        n = 16
        ht = _cgauss(rng, n, m_r, m_t)
        factors = (boundary._cross_factor(h12) for h12 in _cgauss(rng, n, m_r, m_t))
        cross = [np.stack(x) for x in zip(*factors)]
        c, w, cmax, _ = cross
        # water-filling (rho = 0) and rays across the DUAL interval
        a = np.stack([_gram(h, wk) for h, wk in zip(ht, w)])
        top = (1.0 - boundary._RHO_MARGIN) / cmax
        for rho in (np.zeros(n), rng.uniform(0.05, 0.999, n) * top):
            ray = boundary._Rays(a, c, rho, p)
            q = boundary._ray_covariances(w, ray.d, ray.v, ray.powers)
            self._close(boundary._ray_rates(ray.gain, ray.powers), _rates(ht, q))
            self._close(ray.energy, _cross_energy(c, w, q))
            self._close(ray.trace, np.trace(q, axis1=-2, axis2=-1).real)
        # the records of a batch, WF rows and DUAL rows, deferred there and
        # rooted from their records; each row's covariance is its ray's, or
        # the repaired mix the root returns
        e_req = rng.uniform(0.0, 0.99, n) * p * cmax
        rec = boundary._solve_p3_batch(ht, np.arange(n), e_req, p, cross)
        assert set(rec["branch"].tolist()) == {"WF", "DUAL"}
        q = np.empty((n, m_t, m_t), dtype=complex)
        wf = np.flatnonzero(rec["branch"] == "WF")
        ray = boundary._Rays(a[wf], c[wf], np.zeros(wf.size), p)
        q[wf] = boundary._ray_covariances(w[wf], ray.d, ray.v, ray.powers)
        dual = np.flatnonzero(rec["branch"] == "DUAL")
        assert np.isnan(rec["rate"][dual]).all() and np.array_equal(rec["e2"][dual], e_req[dual])
        ray, short, mixed = boundary._root_dual(rec, dual, [x[dual] for x in cross], p)
        q[dual] = boundary._ray_covariances(w[dual], ray.d, ray.v, ray.powers)
        if short.any():
            q[dual[short]] = mixed
        self._close(rec["rate"], _rates(ht, q))
        self._close(rec["e2"], _cross_energy(c, w, q))
        self._close(rec["trace"], np.trace(q, axis1=-2, axis2=-1).real)

    def test_spectral_check(self):
        powers = np.array([[1.0, 0.5, 0.0], [1.5, 0.0, 0.0]])
        traces = np.array([1.5, 1.5])
        check_spectra = boundary._check_spectra
        check_spectra(powers, traces * (1.0 + 1e-10), 1.5)
        for bad in (np.nan, -1e-300):
            broken = powers.copy()
            broken[1, 1] = bad
            with pytest.raises(InvalidInputError, match="negative or non-finite power"):
                check_spectra(broken, traces, 1.5)
        with pytest.raises(InvalidInputError, match="exceeds budget"):
            check_spectra(powers, traces * np.array([1.0, 1.0 + 2e-9]), 1.5)

    @pytest.mark.parametrize("branch,frac", [("WF", 0.0), ("DUAL", 0.7)])
    def test_broken_ray_raises(self, branch, frac, monkeypatch):
        # a ray with a negative power never becomes a record: water-filling
        # (rho = 0), or a root ray that `_repair` leaves alone
        real = boundary._Rays

        class Broken(real):
            def __init__(self, a, c, rho, p):
                super().__init__(a, c, rho, p)
                self.powers[(rho > 0.0) == (branch == "DUAL"), -1] = -1e-3

        cs = draw_channel_set(3, 3, ALPHA, seed=5)
        cap = 5.0 * np.linalg.svd(cs.h12, compute_uv=False)[0] ** 2
        _, diag = solve_p3(cs.h22, cs.h12, frac * cap, 5.0)
        assert diag.branch == branch and not (diag.rescaled or diag.repaired)
        monkeypatch.setattr(boundary, "_Rays", Broken)
        with pytest.raises(InvalidInputError, match="negative or non-finite power"):
            solve_p3(cs.h22, cs.h12, frac * cap, 5.0)


def _svd_ray(ht, h12, rho, p):
    """The price-ray point of one own link through one SVD of (Ht W) D, the
    route that reads no Gram: (covariance, trace, energy)."""
    c, w, _, _ = boundary._cross_factor(h12)
    d2 = 1.0 / (1.0 - rho * c)
    d = np.sqrt(d2)
    _, sig, vh = np.linalg.svd((ht @ w) * d, full_matrices=False)
    floors = _mode_floors(sig**2)
    mag = np.abs(vh) ** 2
    eta = water_level(floors, p, mag @ d2)
    powers = np.maximum(eta - floors, 0.0)
    q = boundary._ray_covariances(w[None], d[None], vh.conj().T[None], powers[None])
    return q, np.array([powers @ (mag @ d2)]), np.array([powers @ (mag @ (c * d2))])


class TestAssembledRows:
    """A covariance is assembled only where one is read: at the cap, where
    `_repair` mixes a ray's, and the one `solve_p3` returns.  A ray rescaled
    into the power ball stays in spectral form."""

    P = 50.0

    @staticmethod
    def _count(monkeypatch):
        # rows that reach check_covariances and _rates, the CAP rows of every
        # evaluated record, and the rooted DUAL rows, rescaled and repaired
        # ones among them, of every root call: the scan's or the finishing one
        seen = dict(checked=0, rated=0, cap=0, rescaled=0, repaired=0, rooted=0)
        real_eval, real_dual, real_check, real_rates = (
            boundary._evaluate_batch,
            boundary._root_dual,
            boundary.check_covariances,
            boundary._rates,
        )

        def evaluating(*args):
            rec = real_eval(*args)
            seen["cap"] += int(np.sum(rec["branch"] == "CAP"))
            return rec

        def rooting(rec, k, *args):
            out = real_dual(rec, k, *args)
            seen["rescaled"] += int(np.sum(rec["rescaled"][k]))
            seen["repaired"] += int(np.sum(rec["repaired"][k]))
            seen["rooted"] += int(np.sum(~np.isnan(rec["rate"][k])))
            return out

        def checking(q, budget):
            seen["checked"] += q.shape[0]
            return real_check(q, budget)

        def rating(b, q):
            seen["rated"] += q.shape[0]
            return real_rates(b, q)

        monkeypatch.setattr(boundary, "_evaluate_batch", evaluating)
        monkeypatch.setattr(boundary, "_root_dual", rooting)
        monkeypatch.setattr(boundary, "check_covariances", checking)
        monkeypatch.setattr(boundary, "_rates", rating)
        return seen

    @staticmethod
    def _only_read(seen):
        due = seen["cap"] + seen["repaired"]
        assert seen["checked"] == seen["rated"] == due
        # rescaled rooted DUAL rows stay in spectral form
        assert 0 < seen["rescaled"] < seen["rooted"]

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("strategy", ["meb", "mlb", "slnr", "sler"])
    def test_sweep(self, strategy, m, monkeypatch):
        seen = self._count(monkeypatch)
        for seed in (1, 2, 3):
            re_sweep(draw_channel_set(m, m, ALPHA, seed=seed), strategy, self.P, n_points=24)
        assert seen["cap"] > 0
        self._only_read(seen)

    def test_scheduled_run(self, monkeypatch):
        seen = self._count(monkeypatch)
        scheduled_run(draw_channel_set(2, 2, ALPHA, seed=3), self.P, n_points=32)
        self._only_read(seen)

    def test_solve_p3_covariance(self, monkeypatch):
        # the covariance solve_p3 returns is valid, and it is water-filling,
        # the cap beam, or the SVD route's ray point at the same root,
        # repaired alike
        real = boundary._ratio_roots
        roots = []

        def rooting(*args):
            out = real(*args)
            roots.append(float(out[0][0]))
            return out

        monkeypatch.setattr(boundary, "_ratio_roots", rooting)
        solve_cases = TestSolveP3()
        cases = [(*solve_cases._links(100 + s), 5.0, (0.2, 0.5, 0.8, 0.99)) for s in range(20)]
        cases += [(*solve_cases._links(200 + s), 3.0, (0.6,)) for s in range(10)]
        cases += [(*solve_cases._links(s), 4.0, (0.0, 1.0)) for s in (31, 32)]
        fracs = (0.3, 0.7, 0.95, 1.0 - 1e-9)
        cases += [(ht, h12, 3.0, fracs) for ht, h12 in TestRatioRoot()._cases()]
        branches = set()
        for ht, h12, p, fracs in cases:
            _, _, cmax, v12 = boundary._cross_factor(h12)
            cap = p * cmax
            for frac in fracs:
                roots.clear()
                q, diag = solve_p3(ht, h12, frac * cap, p)
                check_covariances(q.q, p)
                branches.add(diag.branch)
                if diag.branch == "WF":
                    want = waterfill(ht, None, p).q
                elif diag.branch == "CAP":
                    want = p * np.outer(v12, v12.conj())
                else:
                    want, trace, energy = _svd_ray(ht, h12, roots[0], p)
                    scale = min(1.0, p / trace[0])
                    want, trace, energy = want * scale, trace * scale, energy * scale
                    e_req = np.array([frac * cap])
                    if e_req[0] - energy[0] > boundary._SHORT_TOL * max(1.0, e_req[0]):
                        want = boundary._repair(want, trace, energy, e_req, p, cap, v12)[0]
                    want = want[0]
                assert np.abs(q.q - want).max() <= 1e-12 * p
        assert branches == {"WF", "DUAL", "CAP"}


class TestReBoundaryPoint:
    def test_zero_target_turns_transmitter_off(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=51)
        p = 5.0
        pt = re_boundary_point(cs, "meb", 0.0, p)
        assert pt.branch == "NO_TX"
        assert pt.p1 == 0.0
        want = achievable_rate(cs.h22, np.eye(3), waterfill(cs.h22, None, p))
        assert pt.rate_bits == pytest.approx(want, rel=1e-9)

    def test_max_target_runs_full_power(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=52)
        p = 5.0
        top = emax(cs, "meb", p)
        pt = re_boundary_point(cs, "meb", top, p)
        assert pt.p1 == pytest.approx(p, rel=1e-6)
        assert pt.energy == pytest.approx(top, rel=1e-6)

    def test_energy_delivered_at_interior_targets(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=53)
        p = 4.0
        top = emax(cs, "mlb", p)
        for frac in (0.3, 0.6, 0.9):
            pt = re_boundary_point(cs, "mlb", frac * top, p)
            assert pt.energy >= frac * top * (1.0 - 1e-8)

    @pytest.mark.parametrize("e_bar", [None, "x", [1.0, 2.0]])
    def test_rejects_non_numeric_target(self, e_bar):
        cs = draw_channel_set(2, 2, ALPHA, seed=63)
        with pytest.raises(InvalidInputError, match="e_bar"):
            re_boundary_point(cs, "meb", e_bar, 2.0)


class TestNoTransmit:
    """A point is NO_TX exactly when transmitter 1's settled P1 is 0.0."""

    @pytest.mark.parametrize("strategy", ("meb", "mlb", "sler", "slnr", "meb_rank2"))
    def test_no_tx_iff_zero_power(self, strategy):
        p = 5.0
        covered = 0
        for seed, m_t, m_r in ((5, 3, 3), (6, 2, 2), (5, 4, 2)):
            cs = draw_channel_set(m_t, m_r, ALPHA, seed=seed)
            top = emax(cs, strategy, p)
            # low targets that transmitter 2's leakage covers alone
            low = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 12) * top))
            for bd in (re_sweep(cs, strategy, p, e_grid=low), re_sweep(cs, strategy, p, 16)):
                for pt in bd.points:
                    assert (pt.branch == "NO_TX") == (pt.p1 == 0.0)
                    if pt.p1 == 0.0:
                        assert np.copysign(1.0, pt.p1) == 1.0  # never -0.0
                        covered += pt.e_bar > 0.0
        assert covered > 0

    def test_negative_zero_target_reports_positive_zero_power(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=51)
        pt = re_boundary_point(cs, "meb", -0.0, 5.0)
        assert pt.branch == "NO_TX"
        assert pt.p1 == 0.0 and np.copysign(1.0, pt.p1) == 1.0


class TestReSweep:
    def test_endpoint_grid(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=61)
        p = 3.0
        top = emax(cs, "meb", p)
        bd = re_sweep(cs, "meb", p, e_grid=[0.0, top])
        assert len(bd.points) == 2
        assert bd.points[0].e_bar == 0.0
        assert bd.points[-1].e_bar == pytest.approx(top)
        assert bd.strategy == "meb"
        assert bd.channel_digest == channel_digest(cs)

    def test_rate_monotone_and_energy_feasible(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=62)
        bd = re_sweep(cs, "meb", 5.0, n_points=16)
        rates = [pt.rate_bits for pt in bd.points]
        for a, b in zip(rates, rates[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-9
        for pt in bd.points:
            assert pt.energy >= pt.e_bar - 1e-6 * max(1.0, pt.e_bar)

    @pytest.mark.parametrize(
        "grid",
        [
            [-1.0, 0.0, 1.0],
            [0.0, np.nan, 1.0],
            [0.0, np.inf],
            [2.0, 1.0],
            [0.0, 1.0, 1.0],
            [[0.0, 1.0]],
            1.0,
            ["a", "b"],
        ],
    )
    def test_rejects_malformed_grid_before_solving(self, grid, monkeypatch):
        def refuse(*args):
            raise AssertionError("a malformed grid reached the solver")

        monkeypatch.setattr(boundary, "_emax_many", refuse)
        monkeypatch.setattr(boundary, "_solve_many", refuse)
        cs = draw_channel_set(2, 2, ALPHA, seed=63)
        with pytest.raises(InvalidInputError):
            re_sweep(cs, "meb", 2.0, e_grid=grid)

    def test_unreachable_grid_point_becomes_gap(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=63)
        p = 2.0
        top = emax(cs, "meb", p)
        bd = re_sweep(cs, "meb", p, e_grid=[0.0, top, 2.0 * top])
        assert len(bd.points) == 2
        assert len(bd.gaps) == 1
        idx, e_bar, msg = bd.gaps[0]
        assert idx == 2
        assert e_bar == pytest.approx(2.0 * top)
        assert msg

    def test_all_strategies_produce_valid_curves(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=64)
        for strategy in ("meb", "mlb", "sler", "slnr", "meb_rank2"):
            bd = re_sweep(cs, strategy, 2.0, n_points=8)
            bd.validate()
            assert len(bd.points) == 8


class TestLockstepSweep:
    """re_sweep solves all targets in lockstep; each must land where the
    same target solved alone lands."""

    @pytest.mark.parametrize("m_t,m_r", [(2, 2), (3, 2), (4, 4)])
    def test_points_match_per_target(self, m_t, m_r):
        p = 5.0
        for seed in (1, 2):
            cs = draw_channel_set(m_t, m_r, ALPHA, seed=80 + seed)
            for strategy in ("meb", "mlb", "sler", "slnr", "meb_rank2"):
                ctx = boundary._StrategyContext(cs, strategy, p)
                grid = np.linspace(0.0, ctx.emax(), 12)
                grid = np.append(grid, 1.5 * grid[-1])  # one unreachable target
                solved = boundary._solve_many([(ctx, grid)])
                swept = [solved[ctx, e] for e in grid.tolist()]
                for e_bar, got in zip(grid, swept):
                    try:
                        want = re_boundary_point(cs, strategy, float(e_bar), p)
                    except InfeasibleTargetError as exc:
                        assert isinstance(got, InfeasibleTargetError)
                        assert str(got) == str(exc)
                        continue
                    assert got.rate_bits == pytest.approx(want.rate_bits, abs=1e-12)
                    assert got.branch == want.branch
                    assert got.iterations == want.iterations
                    assert got.p1 == want.p1
                bd = re_sweep(cs, strategy, p, e_grid=grid)
                assert [g[0] for g in bd.gaps] == [12]
                own = [pt for pt in swept if isinstance(pt, REPoint)]
                for pt, mine in zip(bd.points, own):
                    if not pt.carried:
                        assert pt == mine

    def test_point_diagnostics_kept(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=90)
        bd = re_sweep(cs, "slnr", 5.0, n_points=10)
        for pt in bd.points:
            assert pt.p3 is not None
            assert pt.p3.rate_bits == pt.rate_bits
            if pt.branch == "DUAL":
                # only the cap target skips the root (and reports no pair)
                assert pt.p3.lam == pt.lam
                assert (pt.p3.iterations >= 1) == (pt.lam is not None)


class TestStackedLockstep:
    """One lockstep spans several strategy contexts: each row of a stacked
    evaluation reads its own context's links and constants."""

    STRATEGIES = ("meb", "mlb", "sler", "slnr", "meb_rank2")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_match_own_context(self, strategy):
        p = 5.0
        cs = draw_channel_set(3, 2, ALPHA, seed=31)
        sides = (cs, swap_roles(cs), draw_channel_set(3, 2, ALPHA, seed=32))
        ctxs = [boundary._StrategyContext(side, strategy, p) for side in sides]
        rng = np.random.default_rng(33)
        n = 30
        ci = rng.integers(0, len(ctxs), n)
        e_bars = rng.uniform(0.0, 1.0, n) * np.array([ctx.emax() for ctx in ctxs])[ci]
        # repeated powers share one beam per (context, P1); tiny ones fall
        # back to the energy beam, zero turns transmitter 1 off
        p1s = np.where(rng.random(n) < 0.4, p, rng.uniform(0.0, p, n))
        p1s[:4] = [0.0, 1e-13 * p, 0.0, 1e-13 * p]
        ci[:4] = [0, 0, 1, 2]
        both = boundary._evaluate_batch(boundary._stack(ctxs), ci, e_bars, p1s)
        dual = both["branch"] == "DUAL"
        assert dual.any() and not dual.all()
        self._assert_rows_are_own(both, ctxs, ci, e_bars, p1s)

    @staticmethod
    def _assert_rows_are_own(both, ctxs, ci, e_bars, p1s):
        """Each row of the stacked batch `both` equals the row of its own
        context's one-context batch: every `_EVAL` field, bit for bit."""
        for k, ctx in enumerate(ctxs):
            mine = np.flatnonzero(ci == k)
            own = boundary._evaluate_batch(
                boundary._stack([ctx]), np.zeros(mine.size, dtype=int), e_bars[mine], p1s[mine]
            )
            for j, i in enumerate(mine):
                assert both[i].tobytes() == own[j].tobytes()

    def test_mixed_stack_evaluates_each_slnr_pair_once(self, monkeypatch):
        # slnr's rule reads no e_bar, so its rows of one (context, P1) pair
        # share one beam and whitened link even beside a sler row, whose
        # rule reads e_bar and shares with none
        p = 5.0
        cs = draw_channel_set(3, 3, ALPHA, seed=38)
        ctxs = [boundary._StrategyContext(cs, strategy, p) for strategy in ("slnr", "sler")]
        ci = np.array([0, 0, 1])
        e_bars = np.array([0.2, 0.6, 0.4]) * min(ctx.emax() for ctx in ctxs)
        p1s = np.full(3, 0.5 * p)
        real = boundary._whitened_links
        whitened = []

        def counting(st, ci, f, p1s):
            whitened.append(ci.size)
            return real(st, ci, f, p1s)

        monkeypatch.setattr(boundary, "_whitened_links", counting)
        both = boundary._evaluate_batch(boundary._stack(ctxs), ci, e_bars, p1s)
        assert whitened == [2]
        self._assert_rows_are_own(both, ctxs, ci, e_bars, p1s)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_emax_many_matches_emax(self, strategy):
        p = 5.0
        sides = []
        for seed in (34, 35, 36):
            cs = draw_channel_set(2, 2, ALPHA, seed=seed)
            sides += [cs, swap_roles(cs)]
        together = boundary._emax_many(
            [boundary._StrategyContext(side, strategy, p) for side in sides]
        )
        alone = [boundary._StrategyContext(side, strategy, p).emax() for side in sides]
        assert together == alone

    def test_solve_many_matches_one_context_each(self):
        p = 5.0
        cs = draw_channel_set(2, 2, ALPHA, seed=37)
        cases = (
            [(cs, "sler", 0.5), (swap_roles(cs), "sler", 0.5)],
            # one channel's rank-two beams at several splits: the fixed beam
            # is a per-context entry, so a lockstep's contexts need not share one
            [(cs, "meb_rank2", split) for split in (0.1, 0.37, 0.5, 0.9)],
            # one channel's strategies of one rule kind and factor width
            [(cs, "meb", 0.5), (cs, "mlb", 0.5)],
            [(cs, "slnr", 0.5), (cs, "sler", 0.5)],
        )
        for keys in cases:
            ctxs = [_context(side, strategy, p, split) for side, strategy, split in keys]
            grids = [np.linspace(0.0, ctx.emax(), 10) for ctx in ctxs]
            grids[0] = np.append(grids[0], 2.0 * grids[0][-1])  # one unreachable target
            both = boundary._solve_many(list(zip(ctxs, grids)))
            for (side, strategy, split), ctx, grid in zip(keys, ctxs, grids):
                alone = _context(side, strategy, p, split)
                want = boundary._solve_many([(alone, grid)])
                got = [repr(both[ctx, e]) for e in grid.tolist()]
                assert got == [repr(want[alone, e]) for e in grid.tolist()]
            # distinct contexts give distinct points
            tops = {both[ctx, grid[-2]].rate_bits for ctx, grid in zip(ctxs, grids)}
            assert len(tops) == len(ctxs)

    @pytest.mark.parametrize("strategy", ["meb", "sler"])
    def test_failing_rows_stop_only_their_targets(self, strategy, monkeypatch):
        # a batch that raises is evaluated one row at a time, so the targets
        # of the other context go on unchanged
        p = 5.0
        cs = draw_channel_set(2, 2, ALPHA, seed=37)
        sides = (cs, swap_roles(cs))
        grids = [
            np.linspace(0.0, boundary._StrategyContext(side, strategy, p).emax(), 10)
            for side in sides
        ]
        alone = boundary._StrategyContext(cs, strategy, p)
        want = boundary._solve_many([(alone, grids[0])])
        real = boundary._whitened_links

        def refuse_second(st, ci, f, p1s):
            if np.any(ci == 1):
                raise InvariantViolationError("refused")
            return real(st, ci, f, p1s)

        monkeypatch.setattr(boundary, "_whitened_links", refuse_second)
        ctxs = [boundary._StrategyContext(side, strategy, p) for side in sides]
        both = boundary._solve_many(list(zip(ctxs, grids)))
        for e in grids[1].tolist():
            out = both[ctxs[1], e]
            assert isinstance(out, InvariantViolationError) and str(out) == "refused"
        got = [repr(both[ctxs[0], e]) for e in grids[0].tolist()]
        assert got == [repr(want[alone, e]) for e in grids[0].tolist()]

    @pytest.mark.parametrize("strategy", ["meb", "mlb", "slnr", "sler"])
    def test_one_batch_per_backoff_round(self, strategy, monkeypatch):
        # the evaluation at a target's settled P1 shares the backoff's rounds:
        # no separate pass, so the most evaluated target is in every batch;
        # after the last of them, one root call over exactly the targets that
        # end on DUAL, and no further evaluation
        p = 5.0
        events = _record_lockstep(monkeypatch)
        for seed in range(1, 6):
            ctx = boundary._StrategyContext(draw_channel_set(4, 4, ALPHA, seed=seed), strategy, p)
            grid = np.linspace(0.0, ctx.emax(), 32)
            events.clear()
            solved = boundary._solve_many([(ctx, grid)])
            calls = [e_bars for kind, scan, e_bars in events if kind == "eval"]
            # no rescue: every batch is a backoff round, none is the scan,
            # and no root call comes before the last of them
            assert all(scan is False for kind, scan, _ in events if kind == "eval")
            points = [(e, pt) for (_, e), pt in solved.items() if isinstance(pt, REPoint)]
            iters = [pt.iterations for _, pt in points]
            assert len(calls) <= max(iters) + 1
            assert len(calls) == max(sum(e in call for call in calls) for e in grid.tolist())
            dual = [e for e, pt in points if pt.p3.branch == "DUAL"]
            last = max(i for i, (kind, _, _) in enumerate(events) if kind == "eval")
            after = events[last + 1 :]
            assert all(kind == "eval" for kind, _, _ in events[:last])
            if dual:
                assert [kind for kind, _, _ in after] == ["dual", "root"]
                assert grid[after[0][2]].tolist() == dual and after[1][2] == len(dual)
            else:
                assert after == []


def _is_scan(p1s, p):
    """Whether a batch's P1 column is the rescue's scan: `_RESCUE_SCAN`
    powers from 0 to P for each of its targets."""
    scan = np.linspace(0.0, p, boundary._RESCUE_SCAN)
    return p1s.size % scan.size == 0 and bool(np.all(p1s.reshape(-1, scan.size) == scan))


def _record_lockstep(monkeypatch):
    """Log, in order, each `_evaluate_batch` call ("eval", whether it is the
    rescue's scan, e_bars), each `_root_dual` call ("dual", None, rows) and
    each `_ratio_roots` call ("root", the name of its caller, row count)
    that a lockstep makes."""
    events = []
    real_eval, real_dual, real_roots = (
        boundary._evaluate_batch,
        boundary._root_dual,
        boundary._ratio_roots,
    )

    def evaluating(st, ci, e_bars, p1s):
        events.append(("eval", _is_scan(p1s, st.p), e_bars.tolist()))
        return real_eval(st, ci, e_bars, p1s)

    def finishing(rec, k, *args):
        events.append(("dual", None, k.tolist()))
        return real_dual(rec, k, *args)

    def rooting(*args):
        events.append(("root", sys._getframe(1).f_code.co_name, len(args[2])))
        return real_roots(*args)

    monkeypatch.setattr(boundary, "_evaluate_batch", evaluating)
    monkeypatch.setattr(boundary, "_root_dual", finishing)
    monkeypatch.setattr(boundary, "_ratio_roots", rooting)
    return events


class TestDeferredRoots:
    """A batch only evaluates: a DUAL row reports its floor as its energy,
    and `_root_dual` roots it from its record, once for the rescue's scan
    and once for every target that ends on DUAL after the backoffs."""

    P = 5.0

    @staticmethod
    def _lockstep(cs, strategy, p):
        # both orientations of one channel, each on its own grid
        ctxs = [boundary._StrategyContext(side, strategy, p) for side in (cs, swap_roles(cs))]
        return ctxs, [(ctx, boundary._grid([ctx], 24)) for ctx in ctxs]

    @pytest.mark.parametrize("strategy", ["meb", "mlb", "slnr", "sler"])
    @pytest.mark.parametrize("m", [2, 4])
    def test_backoff_makes_no_root(self, strategy, m, monkeypatch):
        events = _record_lockstep(monkeypatch)
        unrescued = 0
        for seed in (1, 2, 3):
            events.clear()
            _, jobs = self._lockstep(draw_channel_set(m, m, ALPHA, seed=seed), strategy, self.P)
            todo = [(ctx, e) for ctx, grid in jobs for e in grid.tolist()]
            solved = boundary._solve_many(jobs)
            dual = [key for key in todo if isinstance(solved[key], REPoint)]
            dual = [key for key in dual if solved[key].p3.branch == "DUAL"]
            assert dual
            # a root call only right after the rescue's scan or after the
            # last evaluation
            evals = [i for i, (kind, _, _) in enumerate(events) if kind == "eval"]
            for i, (kind, _, _) in enumerate(events):
                if kind == "root" and i < evals[-1]:
                    assert events[max(j for j in evals if j < i)][1] is True
            after = events[evals[-1] + 1 :]
            if not any(events[j][1] for j in evals):
                # no rescue scan: after the backoff, one root call over
                # exactly the targets that end on DUAL
                assert [kind for kind, _, _ in after] == ["dual", "root"]
                assert [todo[k] for k in after[0][2]] == dual and after[1][2] == len(dual)
                unrescued += 1
        assert unrescued >= 2

    @pytest.mark.parametrize("strategy", ["meb", "mlb", "meb_rank2"])
    def test_finishing_root_that_raises_goes_row_by_row(self, strategy, monkeypatch):
        # a fixed beam takes no rescue, so the first root call is the
        # finishing one; when it raises, each of its rows is rooted alone
        # from its record, with nothing evaluated again, to the same points
        cs = draw_channel_set(3, 2, ALPHA, seed=4)
        want = boundary._solve_many(self._lockstep(cs, strategy, self.P)[1])
        real_dual, real_eval = boundary._root_dual, boundary._evaluate_batch
        refused = []
        late = []

        def refuse_first(rec, k, *args):
            if not refused:
                refused.append(k.size)
                raise InvariantViolationError("refused")
            late.append(k.tolist())
            return real_dual(rec, k, *args)

        def evaluating(*args):
            assert not refused
            return real_eval(*args)

        monkeypatch.setattr(boundary, "_root_dual", refuse_first)
        monkeypatch.setattr(boundary, "_evaluate_batch", evaluating)
        got = boundary._solve_many(self._lockstep(cs, strategy, self.P)[1])
        dual = [pt for pt in want.values() if isinstance(pt, REPoint) and pt.p3.branch == "DUAL"]
        assert refused == [len(dual)] and len(dual) >= 2
        assert len(late) == len(dual) and all(len(rows) == 1 for rows in late)
        assert [repr(pt) for pt in got.values()] == [repr(pt) for pt in want.values()]

    def test_row_that_raises_takes_the_error(self, monkeypatch):
        # when the row-by-row retry raises on one row, only that row's
        # target takes the error; every other target keeps its point
        cs = draw_channel_set(3, 2, ALPHA, seed=4)
        want = boundary._solve_many(self._lockstep(cs, "meb", self.P)[1])
        dual = [i for i, pt in enumerate(want.values()) if pt.p3.branch == "DUAL"]
        bad = dual[len(dual) // 2]
        real = boundary._root_dual

        def refuse_bad(rec, k, *args):
            if bad in k.tolist():
                raise InvariantViolationError("refused")
            return real(rec, k, *args)

        monkeypatch.setattr(boundary, "_root_dual", refuse_bad)
        got = list(boundary._solve_many(self._lockstep(cs, "meb", self.P)[1]).values())
        assert len(got) == len(want)
        for i, pt in enumerate(want.values()):
            if i == bad:
                assert isinstance(got[i], InvariantViolationError) and str(got[i]) == "refused"
            else:
                assert repr(got[i]) == repr(pt)

    @pytest.mark.parametrize("strategy", ["meb", "slnr", "sler"])
    @pytest.mark.parametrize("m", [2, 4])
    def test_ratio_roots_called_only_from_root_dual(self, strategy, m, monkeypatch):
        # `_ratio_roots` is called by `_root_dual` alone: once right after
        # the rescue's scan, over exactly its deferred rows, and once after
        # the last evaluation, over targets that end on DUAL, every such
        # target the scan did not see among them; nowhere else
        events = _record_lockstep(monkeypatch)
        logged = boundary._evaluate_batch
        deferred = []

        def counting(*args):
            rec = logged(*args)
            deferred.append(np.flatnonzero(np.isnan(rec["rate"])).tolist())
            return rec

        monkeypatch.setattr(boundary, "_evaluate_batch", counting)
        scans = 0
        for seed in (1, 2, 3):
            events.clear()
            deferred.clear()
            _, jobs = self._lockstep(draw_channel_set(m, m, ALPHA, seed=seed), strategy, self.P)
            todo = [(ctx, e) for ctx, grid in jobs for e in grid.tolist()]
            solved = boundary._solve_many(jobs)
            kinds = [kind for kind, _, _ in events]
            roots = [i for i, kind in enumerate(kinds) if kind == "root"]
            assert all(events[i][1] == "_root_dual" for i in roots)
            evals = [i for i, kind in enumerate(kinds) if kind == "eval"]
            scan = [j for j, i in enumerate(evals) if events[i][1]]
            assert len(scan) <= 1
            seen = set()
            if scan:
                scans += 1
                i = evals[scan[0]]
                seen = set(events[i][2])
                if deferred[scan[0]]:
                    assert kinds[i + 1 : i + 3] == ["dual", "root"]
                    assert events[i + 1][2] == deferred[scan[0]]
                    del kinds[i + 1 : i + 3]
            # what is left: evaluations, then at most one finishing root
            last = max(i for i, kind in enumerate(kinds) if kind == "eval")
            assert all(kind == "eval" for kind in kinds[:last])
            assert kinds[last + 1 :] in ([], ["dual", "root"])
            finish = set(events[-2][2]) if kinds[last + 1 :] else set()
            dual = {
                k
                for k, key in enumerate(todo)
                if isinstance(solved[key], REPoint) and solved[key].p3.branch == "DUAL"
            }
            assert finish <= dual
            assert {k for k in dual if todo[k][1] not in seen} <= finish
        assert scans >= (strategy == "sler" and m == 2)

    @pytest.mark.parametrize("strategy", ["meb", "mlb", "slnr", "sler", "meb_rank2"])
    def test_dual_points_match_direct_evaluation(self, strategy):
        checked = 0
        for seed in (4, 5):
            ctxs, jobs = self._lockstep(draw_channel_set(3, 2, ALPHA, seed=seed), strategy, self.P)
            solved = boundary._solve_many(jobs)
            for ctx, grid in jobs:
                e_max = ctx.emax()
                for e_bar in grid.tolist():
                    pt = solved[ctx, e_bar]
                    if not (isinstance(pt, REPoint) and pt.p3.branch == "DUAL"):
                        continue
                    st = boundary._stack([ctx])
                    one = np.zeros(1, dtype=int)
                    rec = boundary._evaluate_batch(
                        st, one, np.array([min(e_bar, e_max)]), np.array([pt.p1])
                    )
                    # the evaluation defers the row; its record roots it
                    assert rec["branch"][0] == "DUAL" and np.isnan(rec["rate"][0])
                    cross = [st.c[one], st.w[one], st.cmax[one], st.v12[one]]
                    boundary._root_dual(rec, one, cross, self.P)
                    (fields,) = boundary._columns(rec, boundary._P3_FIELDS)
                    assert repr(pt.p3) == repr(boundary._diagnostics(*fields))
                    assert pt.energy == float(rec["e11"][0] + rec["e2"][0])
                    checked += 1
        assert checked >= 4


class TestRescueShortfall:
    """A target that the backoff and the rescue's scan both leave short is a
    gap: the error names the best energy seen, and the other targets of the
    sweep are solved as before."""

    def test_target_short_at_every_p1(self, monkeypatch):
        p = 5.0
        n = 9
        k = 4
        cs = draw_channel_set(2, 2, ALPHA, seed=37)
        want = re_sweep(cs, "sler", p, n_points=n)
        target = want.points[k].e_bar
        real = boundary._evaluate_batch
        short = []

        def falls_short(st, ci, e_bars, p1s):
            # the target gets half of itself at full power, less below; a
            # patched row is not a deferred DUAL row, whose root would read
            # the patched energy as its floor
            rec = real(st, ci, e_bars, p1s)
            hit = e_bars == target
            rec["e11"][hit] = 0.0
            rec["e2"][hit] = 0.5 * target * (p1s[hit] / p)
            rec["rate"][hit & np.isnan(rec["rate"])] = 0.0
            short.extend(p1s[hit].tolist())
            return rec

        monkeypatch.setattr(boundary, "_evaluate_batch", falls_short)
        got = re_sweep(cs, "sler", p, n_points=n)
        text = f"strategy 'sler' delivers {0.5 * target!r} at target {target!r}"
        assert got.gaps == [(k, target, text)]
        # the rescue scanned the target's P1 range before giving up
        assert set(np.linspace(0.0, p, boundary._RESCUE_SCAN).tolist()) <= set(short)
        assert [pt.e_bar for pt in got.points] == [
            pt.e_bar for i, pt in enumerate(want.points) if i != k
        ]
        assert got.points[k:] == want.points[k + 1 :]
        with pytest.raises(InfeasibleTargetError, match="delivers") as info:
            re_boundary_point(cs, "sler", target, p)
        assert info.value.max_attainable == 0.5 * target


class TestBackoffSettles:
    """The power backoff reaches its fixed point: a published point that
    settles on WF with 0 < P1 < P over-delivers by at most kappa times the
    settle tolerance 1e-8 max(P, 1)."""

    P = 50.0

    @staticmethod
    def _excess(pt, p):
        # over-delivery in units of kappa * tolerance, kappa = e11 / P1
        kappa = (pt.energy - pt.p3.energy) / pt.p1
        return (pt.energy - pt.e_bar) / (kappa * boundary._P1_TOL * max(p, 1.0))

    def test_published_points_settle(self):
        # the sched-2x2 benchmark channels: seeds 1-8, cross gain 0.7 on odd
        # seeds and 1.0 on even ones, both orientations on their own grids
        checked = 0
        for seed in range(1, 9):
            a = 0.7 if seed % 2 else 1.0
            cs = draw_channel_set(2, 2, [[1.0, a], [a, 1.0]], seed=seed)
            for side in (cs, swap_roles(cs)):
                for pt in re_sweep(side, "sler", self.P, n_points=64).points:
                    if pt.branch == "WF" and not pt.carried and 0.0 < pt.p1 < self.P:
                        checked += 1
                        assert self._excess(pt, self.P) <= 1.0
        assert checked >= 150

    def test_settles_before_round_limit(self):
        # scheduled-grid targets of seed 7 at cross gain 0.7 where the plain
        # map ran into the 20-round limit, up to 8,500 tolerances short of
        # its fixed point
        cs = draw_channel_set(2, 2, [[1.0, 0.7], [0.7, 1.0]], seed=7)
        ctxs = [boundary._StrategyContext(side, "sler", self.P) for side in (cs, swap_roles(cs))]
        grid = boundary._grid(ctxs, 64)
        for e_bar in grid[28:33].tolist():
            pt = re_boundary_point(cs, "sler", e_bar, self.P)
            assert pt.branch == "WF" and pt.iterations < boundary._N_MAX
            assert self._excess(pt, self.P) <= 1.0


class TestAitkenStep:
    """`_Aitken` on a linear map T(x) = (E - e2(x)) / kappa with
    e2(x) = e0 - c x, whose contraction ratio is c / kappa."""

    E, E0, C, KAPPA, P = 10.0, 4.0, 0.5, 1.0, 20.0

    def _ev(self, x, e2=None):
        ev = np.zeros(1, boundary._EVAL)
        ev["p1"], ev["kappa"], ev["e11"] = x, self.KAPPA, self.KAPPA * x
        ev["e2"] = self.E0 - self.C * x if e2 is None else e2
        return ev

    def _next(self, steps, ev):
        nxt, settled = steps.next_p1(
            np.array([0]), np.array([self.E]), ev, self.P, 1e-12, np.array([False])
        )
        return float(nxt[0]), bool(settled[0])

    def test_dual_record_meets_its_floor(self):
        # a DUAL row delivers its floor whatever its last bits read: a plain
        # step settles at its own P1, and a pending Aitken step is reverted
        steps = boundary._Aitken(1)
        x = 7.0
        ev = self._ev(x, e2=self.E - self.KAPPA * x + 1e-6)
        ev["branch"] = "DUAL"
        assert self._next(steps, ev) == (x, True)
        steps = boundary._Aitken(1)
        x = self.P
        for _ in range(3):
            x, _ = self._next(steps, self._ev(x))
        assert steps.fast[0]
        t = steps.t[0]
        ev = self._ev(x, e2=self.E - self.KAPPA * x + 1e-6)
        ev["branch"] = "DUAL"
        assert self._next(steps, ev) == (t, False)
        assert not steps.fast[0]

    def test_steps_short_of_the_fixed_point_and_reverts(self):
        fixed = (self.E - self.E0) / (self.KAPPA - self.C)
        steps = boundary._Aitken(1)
        x = self.P
        plain = []
        for _ in range(2):
            x, settled = self._next(steps, self._ev(x))
            plain.append(x)
            assert not settled and not steps.fast[0]
        # the third plain step makes the second ratio, which agrees
        t = (self.E - self.E0 + self.C * x) / self.KAPPA
        y, settled = self._next(steps, self._ev(x))
        assert steps.fast[0] and not settled
        assert y == pytest.approx(fixed + boundary._AITKEN_MARGIN * (t - fixed), rel=1e-12)
        assert fixed < y < t
        # an Aitken step that does not over-deliver is reverted to T(x)
        nxt, settled = self._next(steps, self._ev(y, e2=self.E - self.KAPPA * y - 1.0))
        assert nxt == t and not settled and not steps.fast[0]
        # and two more plain steps must agree before the next Aitken step
        nxt, _ = self._next(steps, self._ev(t))
        assert not steps.fast[0]


class TestWhitenedLinks:
    """Receiver 2's whitened link and kappa, computed from transmitter 1's
    beam factor F, equal their definitions with W = F F^H:
    H22~ = (I + P1 H21 W H21^H)^{-1/2} H22 and kappa = tr(H11 W H11^H)."""

    P = 5.0
    BEAMS = [(s, 0.5) for s in ("meb", "mlb", "slnr", "sler")] + [
        ("meb_rank2", split) for split in (0.0, 0.3, 0.5, 1.0)
    ]

    @pytest.mark.parametrize("strategy, split", BEAMS)
    @pytest.mark.parametrize("m_t, m_r", [(2, 2), (3, 2), (4, 4)])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_factor_form_matches_definitions(self, strategy, split, m_t, m_r, seed):
        cs = draw_channel_set(m_t, m_r, ALPHA, seed=seed)
        st = boundary._stack([_context(cs, strategy, self.P, split)])
        p1s = np.array([0.0, 1e-9, 0.3, 1.0]) * self.P
        ci = np.zeros(p1s.size, dtype=int)
        e_bars = np.full(p1s.size, 0.5 * self.P * np.linalg.norm(cs.h11, 2) ** 2)
        f, kappa = boundary._unit_covs(st, ci, e_bars, p1s)
        ht = boundary._whitened_links(st, ci, f, p1s)
        # no power at transmitter 1: receiver 2's link comes back as it is
        assert np.array_equal(ht[0], cs.h22)
        if strategy == "mlb" and m_t > m_r:
            # the beam lies in H21's null space
            assert np.linalg.norm(cs.h21 @ f[-1]) < 1e-12
        for fk, kappa_k, ht_k, p1 in zip(f, kappa.tolist(), ht, p1s.tolist()):
            w = fk @ fk.conj().T
            r2 = np.eye(m_r) + p1 * cs.h21 @ w @ cs.h21.conj().T
            want = inv_sqrt_psd(r2) @ cs.h22
            assert np.linalg.norm(ht_k - want) <= 1e-12 * np.linalg.norm(want)
            want_kappa = np.trace(cs.h11 @ w @ cs.h11.conj().T).real
            assert abs(kappa_k - want_kappa) <= 1e-12 * want_kappa


    @staticmethod
    def _eigh_route(st, ci, f, p1s):
        # the k x k eigendecomposition for every factor, rank one included
        h22 = st.h22[ci]
        u = np.sqrt(p1s)[:, None, None] * (st.h21[ci] @ f)
        mu, e = np.linalg.eigh(u.conj().swapaxes(-1, -2) @ u)
        s = np.sqrt(1.0 + mu)
        ue = u @ e
        g = 1.0 / (s * (1.0 + s))
        return h22 - (ue * g[:, None, :]) @ (ue.conj().swapaxes(-1, -2) @ h22)

    @pytest.mark.parametrize("strategy, split", BEAMS)
    @pytest.mark.parametrize("m_t, m_r", [(2, 2), (3, 2), (4, 4)])
    def test_closed_form_is_the_eigh_route_bit_for_bit(self, strategy, split, m_t, m_r):
        # a one-column factor takes mu = U^H U and E = 1, which is what the
        # 1 x 1 eigh returns; meb_rank2's two columns keep the eigh
        rng = np.random.default_rng(m_t * 10 + m_r)
        for seed in range(13, 19):
            cs = draw_channel_set(m_t, m_r, ALPHA, seed=seed)
            st = boundary._stack([_context(cs, strategy, self.P, split)])
            p1s = np.concatenate(([0.0, 1e-13 * self.P, self.P], rng.uniform(0.0, self.P, 20)))
            ci = np.zeros(p1s.size, dtype=int)
            top = self.P * np.linalg.norm(cs.h11, 2) ** 2
            f, _ = boundary._unit_covs(st, ci, rng.uniform(0.0, top, p1s.size), p1s)
            assert f.shape[-1] == (2 if strategy == "meb_rank2" else 1)
            got = boundary._whitened_links(st, ci, f, p1s)
            assert got.tobytes() == self._eigh_route(st, ci, f, p1s).tobytes()


class TestSharedContext:
    """Each call builds its strategy context from (orientation, strategy, P),
    and a meb_rank2 context at another split takes that split's factor; no
    solved outcome is shared between calls."""

    def test_separate_outcomes_per_key(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=21)
        p = 5.0
        top = emax(cs, "meb_rank2", p)
        a = re_sweep(cs, "meb_rank2", p, n_points=6)
        b = _split_sweep(cs, p, 0.2, 6)
        assert b.e_max != a.e_max
        assert a.e_max == top
        assert [pt.rate_bits for pt in a.points] != [pt.rate_bits for pt in b.points]
        assert re_sweep(cs, "meb_rank2", 2 * p, n_points=6).e_max != top
        # a repeated target is solved again: the same answer, a new object
        e = 0.6 * emax(cs, "sler", p)
        first = re_boundary_point(cs, "sler", e, p)
        assert first.iterations > 1
        again = re_boundary_point(cs, "sler", e, p)
        assert again is not first and repr(again) == repr(first)
        # a sweep in between leaves the point unchanged
        re_sweep(cs, "sler", p, n_points=9, e_grid=np.array([0.0, e]))
        assert repr(re_boundary_point(cs, "sler", e, p)) == repr(first)


def _haar(rng, n):
    """A Haar-distributed n x n unitary: the QR factor of a complex Gaussian
    matrix, with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rotated(cs, rng):
    """cs with every link H_ij turned into U_i H_ij V_j^H, for Haar unitaries
    U_1, U_2 (M_r x M_r) and V_1, V_2 (M_t x M_t): the same channel in
    other bases, so every link keeps its norm and its singular values."""
    u = [_haar(rng, cs.m_r) for _ in range(2)]
    v = [_haar(rng, cs.m_t) for _ in range(2)]
    links = {
        f"h{i}{j}": u[i - 1] @ getattr(cs, f"h{i}{j}") @ v[j - 1].conj().T
        for i in (1, 2)
        for j in (1, 2)
    }
    return ChannelSet(alpha=cs.alpha, m_t=cs.m_t, m_r=cs.m_r, seed=cs.seed, **links)


class TestMlbNullSpace:
    """Where H21 (M_r x M_t, M_t >= M_r + 2) has a null space of dimension 2
    or more, mlb takes the null direction with the most direct-link gain
    ||H11 v||^2, so its boundary does not depend on the channel's basis."""

    P = 50.0

    def test_rates_do_not_depend_on_the_basis(self):
        rng = np.random.default_rng(19)
        for seed in range(1, 21):
            cs = draw_channel_set(4, 2, ALPHA, seed=seed)
            want = re_sweep(cs, "mlb", self.P, n_points=33)
            got = re_sweep(_rotated(cs, rng), "mlb", self.P, n_points=33)
            assert abs(got.e_max - want.e_max) <= 1e-12 * want.e_max
            assert got.gaps == want.gaps == []
            for a, b in zip(got.points, want.points, strict=True):
                assert abs(a.rate_bits - b.rate_bits) <= 1e-12 * max(1.0, b.rate_bits)

    def test_beam_is_the_best_null_direction(self):
        for seed in range(1, 6):
            cs = draw_channel_set(4, 2, ALPHA, seed=seed)
            (f,) = boundary._StrategyContext(cs, "mlb", self.P).consts["f_fixed"].T
            # in H21's null space, with the top gain of H11 restricted to it
            null = np.linalg.svd(cs.h21)[2].conj().T[:, 2:]
            top = np.linalg.norm(cs.h11 @ null, 2) ** 2
            assert np.linalg.norm(cs.h21 @ f) <= 1e-12
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(cs.h11 @ f) ** 2 - top) <= 1e-12 * top

    @pytest.mark.parametrize("m_t, m_r", [(2, 2), (3, 2), (4, 3), (2, 4)])
    def test_at_most_one_null_direction_keeps_the_least_singular_vector(self, m_t, m_r):
        cs = draw_channel_set(m_t, m_r, ALPHA, seed=3)
        f = boundary._StrategyContext(cs, "mlb", self.P).consts["f_fixed"]
        assert f.tobytes() == mlb(cs.h21, 1.0).v[:, None].tobytes()


class TestCarriedPoints:
    def test_carried_rows_are_flagged(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=7)
        p = 5.0
        bd = re_sweep(cs, "sler", p, n_points=16)
        carried = [k for k, pt in enumerate(bd.points) if pt.carried]
        assert carried
        for k in carried:
            pt = bd.points[k]
            assert pt.energy >= pt.e_bar
            assert pt.rate_bits == bd.points[k + 1].rate_bits
            own = re_boundary_point(cs, "sler", pt.e_bar, p)
            assert not own.carried
            assert own.rate_bits < pt.rate_bits
        assert not bd.points[-1].carried


class TestBoundaryValidate:
    def _points(self):
        return [
            REPoint(e_bar=0.0, rate_bits=2.0, energy=0.5, p1=0.0, branch="WF", iterations=1),
            REPoint(e_bar=1.0, rate_bits=1.5, energy=1.0, p1=1.0, branch="DUAL", iterations=3),
        ]

    def test_accepts_clean_curve(self):
        bd = REBoundary(points=self._points(), strategy="meb", channel_digest="d", e_max=1.0)
        bd.validate()

    def test_rejects_rate_increase(self):
        pts = self._points()
        pts[1] = REPoint(
            e_bar=1.0, rate_bits=2.5, energy=1.0, p1=1.0, branch="DUAL", iterations=3
        )
        bd = REBoundary(points=pts, strategy="meb", channel_digest="d", e_max=1.0)
        with pytest.raises(InvariantViolationError):
            bd.validate()

    def test_rejects_energy_shortfall(self):
        pts = self._points()
        pts[1] = REPoint(
            e_bar=1.0, rate_bits=1.5, energy=0.2, p1=1.0, branch="DUAL", iterations=3
        )
        bd = REBoundary(points=pts, strategy="meb", channel_digest="d", e_max=1.0)
        with pytest.raises(InvariantViolationError):
            bd.validate()

    def test_rejects_unordered_targets(self):
        pts = list(reversed(self._points()))
        bd = REBoundary(points=pts, strategy="meb", channel_digest="d", e_max=1.0)
        with pytest.raises(InvariantViolationError):
            bd.validate()


class TestTimeSharing:
    def test_endpoints(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=71)
        p = 4.0
        bd = time_sharing_curve(re_sweep(cs, "meb", p, n_points=9), weights=[0.0, 0.5, 1.0])
        first, last = bd.points[0], bd.points[-1]
        # tau = 0: transmitter 1 silent, water-filling rate, leakage energy
        q_wf = waterfill(cs.h22, None, p)
        assert first.rate_bits == pytest.approx(
            achievable_rate(cs.h22, np.eye(3), q_wf), rel=1e-9
        )
        assert first.p1 == 0.0
        # tau = 1: full-power beams at both transmitters
        assert last.p1 == pytest.approx(p)
        assert last.e_bar == pytest.approx(bd.e_max)
        assert all(pt.branch == "TS" for pt in bd.points)
        assert (bd.strategy, bd.seed, bd.channel_digest) == ("meb", cs.seed, channel_digest(cs))

    def test_linear_interpolation(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=72)
        sweep = re_sweep(cs, "mlb", 2.0, n_points=9)
        bd = time_sharing_curve(sweep, weights=np.linspace(0.0, 1.0, 5))
        r0, r1 = bd.points[0].rate_bits, bd.points[-1].rate_bits
        e0, e1 = bd.points[0].energy, bd.points[-1].energy
        for pt in bd.points:
            # p1 is transmitter 1's mean power: tau times the full-power end's
            tau = pt.p1 / sweep.points[-1].p1
            assert pt.rate_bits == pytest.approx((1 - tau) * r0 + tau * r1, rel=1e-9)
            assert pt.energy == pytest.approx((1 - tau) * e0 + tau * e1, rel=1e-9)

    def test_rejects_adaptive_strategies(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=73)
        for strategy in ("sler", "slnr", "meb_rank2"):
            with pytest.raises(InvalidInputError, match="meb or mlb"):
                time_sharing_curve(re_sweep(cs, strategy, 1.0, n_points=4), weights=[0.0, 1.0])

    def test_rejects_ends_off_zero_and_emax(self):
        # a sweep on a grid of its own choosing has no point at target 0 or
        # none at its e_max, so it holds no time-sharing end there
        cs = draw_channel_set(2, 2, ALPHA, seed=73)
        p = 1.0
        top = emax(cs, "meb", p)
        shared = np.linspace(0.0, emax(cs, "mlb", p), 5)  # below meb's e_max
        for grid in (shared, np.linspace(0.1 * top, top, 5)):
            with pytest.raises(InvalidInputError, match="target 0 and at e_max"):
                time_sharing_curve(re_sweep(cs, "meb", p, e_grid=grid), weights=[0.0, 1.0])
        empty = REBoundary(points=[], strategy="meb", channel_digest="d", e_max=top)
        with pytest.raises(InvalidInputError, match="target 0 and at e_max"):
            time_sharing_curve(empty, weights=[0.0, 1.0])

    @pytest.mark.parametrize("weights", [[0.0, 1.5], [-0.1], [np.nan], [np.inf], [[0.0, 1.0]]])
    def test_rejects_bad_weights(self, weights):
        cs = draw_channel_set(2, 2, ALPHA, seed=73)
        with pytest.raises(InvalidInputError, match="weights"):
            time_sharing_curve(re_sweep(cs, "meb", 1.0, n_points=4), weights=weights)
