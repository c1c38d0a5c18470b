"""Tests for water-filling and the rank-one beam families."""

import itertools
import types
import warnings

import numpy as np
import pytest

from swiptifc import (
    DegenerateChannelError,
    InvalidInputError,
    STRATEGIES,
    achievable_rate,
    check_strategy,
    draw_channel_set,
    eh_eh_optimal,
    interference_cov,
    iterative_waterfilling,
    meb,
    meb_rank2,
    mlb,
    sler,
    sler_beam,
    slnr_beam,
    stacked_channel,
    waterfill,
)
from swiptifc import beamformers, linalg, metrics
from swiptifc.beamformers import water_level
from swiptifc.oracle import (
    counted_water_level,
    game_census,
    iterative_waterfilling_per_user,
    random_psd_search,
)

ALPHA = np.array([[1.0, 0.8], [0.8, 1.0]])

# the (M_t, M_r) shapes the game tests cycle
GAME_SHAPES = ((1, 1), (2, 2), (2, 3), (3, 2), (4, 4), (4, 2))


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unit_dirs(rng, m, k):
    v = _cgauss(rng, m, k)
    return v / np.linalg.norm(v, axis=0, keepdims=True)


def test_check_strategy():
    for s in STRATEGIES:
        assert check_strategy(s) == s
    with pytest.raises(InvalidInputError):
        check_strategy("mrt")


class TestWaterfill:
    def test_strong_and_weak_mode(self):
        # modes 4 and 0.01: one unit of water stays on the strong mode
        q = waterfill(np.diag([2.0, 0.1]).astype(complex), None, 1.0)
        assert np.allclose(q.q, np.diag([1.0, 0.0]), atol=1e-9)

    def test_equal_modes_split_evenly(self):
        q = waterfill(np.eye(3, dtype=complex), None, 6.0)
        assert np.allclose(q.q, 2.0 * np.eye(3), atol=1e-8)

    def test_zero_power(self):
        q = waterfill(np.eye(2, dtype=complex), None, 0.0)
        assert np.all(q.q == 0.0)

    def test_zero_channel_raises(self):
        with pytest.raises(DegenerateChannelError):
            waterfill(np.zeros((2, 2), dtype=complex), None, 1.0)

    def test_noise_whitening(self):
        # scaling the noise is the same as scaling the channel down
        rng = np.random.default_rng(7)
        h = _cgauss(rng, 3, 3)
        qa = waterfill(h, 4.0 * np.eye(3), 2.0)
        qb = waterfill(h / 2.0, None, 2.0)
        assert np.allclose(qa.q, qb.q, atol=1e-8)

    def test_kkt_census(self):
        # active modes share one water level; inactive modes sit above it
        rng = np.random.default_rng(13)
        for k in range(200):
            m = int(rng.integers(1, 7))
            h = _cgauss(rng, m, m)
            p = float(rng.uniform(0.05, 20.0))
            q = waterfill(h, None, p)
            assert q.trace == pytest.approx(p, rel=1e-9)
            d, u = np.linalg.eigh(h.conj().T @ h)
            pw = np.diag(u.conj().T @ q.q @ u).real
            levels = [pw[i] + 1.0 / d[i] for i in range(m) if pw[i] > 1e-7 * p]
            assert levels, f"draw {k}: no active mode"
            mu = np.mean(levels)
            for lv in levels:
                assert abs(lv - mu) < 1e-8 * max(mu, 1.0)
            for i in range(m):
                if pw[i] <= 1e-7 * p and d[i] > 0:
                    assert 1.0 / d[i] >= mu * (1.0 - 1e-8)


class TestWaterLevel:
    def _spent(self, a, w, eta):
        return float(np.sum(w * np.maximum(eta - a, 0.0)))

    def test_spends_budget_at_one_level(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a = 1.0 / rng.uniform(0.01, 10.0, n)
            w = rng.uniform(0.2, 5.0, n) if rng.random() < 0.5 else np.ones(n)
            p = float(rng.uniform(0.05, 50.0))
            eta = water_level(a, p, w)
            assert abs(self._spent(a, w, eta) - p) <= 1e-12 * p
            # active modes sit below the level, inactive ones at or above it
            active = a < eta
            assert active.any()
            assert np.all(a[~active] >= eta)

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = 1.0 / rng.uniform(0.05, 5.0, n)
            p = float(rng.uniform(0.1, 20.0))
            grid = np.linspace(a.min(), a.max() + p, 200001)
            spent = np.maximum(grid[:, None] - a[None, :], 0.0).sum(axis=1)
            k = int(np.searchsorted(spent, p))
            assert grid[k - 1] <= water_level(a, p) <= grid[k]

    def test_weighted_matches_active_set_enumeration(self):
        # brute force: the one active set whose level is consistent with it
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = 1.0 / rng.uniform(0.05, 5.0, n)
            w = rng.uniform(0.1, 10.0, n)
            p = float(rng.uniform(0.1, 20.0))
            found = []
            for mask in range(1, 2**n):
                s = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
                eta = (p + np.sum(w[s] * a[s])) / np.sum(w[s])
                if np.all(a[s] < eta) and np.all(a[~s] >= eta):
                    found.append(eta)
            assert len(found) == 1
            assert water_level(a, p, w) == pytest.approx(found[0], rel=1e-12)

    def test_leading_axis_matches_rows(self):
        # a stack of rows, some with +inf floors (modes that take no power),
        # gets exactly the 1-D level of each row's finite floors
        rng = np.random.default_rng(20)
        for _ in range(50):
            rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            a = 1.0 / rng.uniform(0.01, 10.0, (rows, n))
            w = rng.uniform(0.2, 5.0, (rows, n))
            a[rng.random((rows, n)) < 0.3] = np.inf
            a[:, 0] = np.minimum(a[:, 0], 5.0)
            p = float(rng.uniform(0.05, 50.0))
            got = water_level(a, p, w)
            unit = water_level(a, p)
            assert got.shape == unit.shape == (rows,)
            for r in range(rows):
                live = np.isfinite(a[r])
                assert got[r] == water_level(a[r][live], p, w[r][live])
                assert unit[r] == water_level(a[r][live], p)

    def test_tied_floors(self):
        assert water_level(np.array([1.0, 1.0, 3.0]), 2.0) == pytest.approx(2.0)
        assert water_level(np.array([0.5]), 1.0, np.array([4.0])) == pytest.approx(0.75)
        # lists pass the input checks, unsorted and with +inf floors
        assert water_level([3.0, np.inf, 1.0, 1.0], 2.0) == 2.0
        stacked = water_level([[2.0, 0.5], [0.5, 2.0]], 1.0, [[1.0, 4.0], [4.0, 1.0]])
        assert stacked.tolist() == [0.75, 0.75]

    def test_kernel_is_the_counted_level_bit_for_bit(self):
        # the smallest prefix level of sorted floors against the oracle's
        # sort-and-count, weighted and unweighted, with +inf tails, per row
        # of a stack and row by row
        rng = np.random.default_rng(22)
        for _ in range(400):
            rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = np.sort(1.0 / rng.uniform(0.01, 10.0, (rows, n)), axis=-1)
            for r, live in enumerate(rng.integers(1, n + 1, rows)):
                a[r, live:] = np.inf
            w = rng.uniform(0.2, 5.0, (rows, n))
            p = float(rng.uniform(0.05, 50.0))
            for weights in (None, w):
                got = beamformers._water_level(a, p, weights)
                assert got.shape == (rows, 1)
                assert got[:, 0].tobytes() == counted_water_level(a, p, weights).tobytes()
                for r in range(rows):
                    wr = None if weights is None else weights[r]
                    one = beamformers._water_level(a[r], p, wr)
                    assert one.shape == (1,)
                    assert one[0] == counted_water_level(a[r], p, wr) == got[r, 0]

    @pytest.mark.parametrize(
        "floors, p, weights",
        [
            ([1.0, 2.0], -1.0, None),
            ([1.0, 2.0], 0.0, None),
            ([1.0, 2.0], np.nan, None),
            ([1.0, np.nan], 1.0, None),
            ([1.0, -np.inf], 1.0, None),
            ([1.0, 2.0], 1.0, [1.0, -1.0]),
            ([1.0, 2.0], 1.0, [1.0, 0.0]),
            ([1.0, 2.0], 1.0, [1.0]),
            ([np.inf, np.inf], 1.0, None),
            ([[1.0, 2.0], [np.inf, np.inf]], 1.0, None),
            ([], 1.0, None),
            ([[]], 1.0, None),
            (1.0, 1.0, None),
            ("x", 1.0, None),
            (["1.0", "2.0"], 1.0, None),
            ([True, 2.0], 1.0, None),
            ([1.0, 2.0], 1.0, "x"),
            (np.ones((2, 2, 2)), 1.0, None),
        ],
    )
    def test_rejects_bad_input(self, floors, p, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                water_level(floors, p, weights)



class TestIterativeWaterfilling:
    def test_scalar_rates(self):
        # with one antenna each side the fixed point is reached in one round
        cs = draw_channel_set(1, 1, ALPHA, seed=21)
        p = 3.0
        res = iterative_waterfilling(cs, p)
        assert res.converged
        g11 = abs(cs.h11[0, 0]) ** 2
        g12 = abs(cs.h12[0, 0]) ** 2
        want1 = np.log2(1.0 + p * g11 / (1.0 + p * g12))
        assert res.rates[0] == pytest.approx(want1, rel=1e-9)
        g22 = abs(cs.h22[0, 0]) ** 2
        g21 = abs(cs.h21[0, 0]) ** 2
        want2 = np.log2(1.0 + p * g22 / (1.0 + p * g21))
        assert res.rates[1] == pytest.approx(want2, rel=1e-9)

    def test_weak_coupling_approaches_single_user(self):
        alpha = np.array([[1.0, 1e-8], [1e-8, 1.0]])
        cs = draw_channel_set(3, 3, alpha, seed=2)
        res = iterative_waterfilling(cs, 5.0)
        solo1 = achievable_rate(cs.h11, np.eye(3), waterfill(cs.h11, None, 5.0))
        solo2 = achievable_rate(cs.h22, np.eye(3), waterfill(cs.h22, None, 5.0))
        assert res.rates[0] == pytest.approx(solo1, abs=1e-4)
        assert res.rates[1] == pytest.approx(solo2, abs=1e-4)

    def test_convergence_census_weak_coupling(self):
        alpha = np.array([[1.0, 0.1], [0.1, 1.0]])
        hits = 0
        for seed in range(500):
            cs = draw_channel_set(2, 2, alpha, seed=seed)
            if iterative_waterfilling(cs, 10.0).converged:
                hits += 1
        assert hits >= 475

    def test_nonconvergence_reported_under_strong_coupling(self):
        # the selfish game can oscillate; the flag must say so
        found = False
        for seed in range(20):
            cs = draw_channel_set(2, 2, ALPHA, seed=seed)
            res = iterative_waterfilling(cs, 10.0)
            if not res.converged:
                assert len(res.deltas) == 20
                assert res.iterations == 20
                found = True
                break
        assert found

    def test_update_modes(self):
        # production plays simultaneous updates; the oracle also plays the
        # sequential rule, and both rules settle on the same point here
        cs = draw_channel_set(2, 2, ALPHA, seed=33)
        sim = iterative_waterfilling(cs, 1.0)
        seq = iterative_waterfilling_per_user(cs, 1.0, update="sequential")
        assert sim.converged and seq.converged
        assert np.allclose(sim.q1.q, seq.q1.q, atol=1e-6)
        with pytest.raises(InvalidInputError):
            iterative_waterfilling_per_user(cs, 1.0, update="jacobi")

    @pytest.mark.parametrize("shape", GAME_SHAPES, ids=lambda s: "%dx%d" % s)
    def test_spectral_game_matches_the_per_user_game(self, shape):
        # the oracle at production's rule (simultaneous updates, 20 rounds)
        # through an inverse square root and an SVD per transmitter and round:
        # the same rounds, and the same rates and covariances to rounding
        grid = itertools.product(range(1, 31), (0.3, 1.0), (0.1, 50.0))
        for seed, a, p in grid:
            cs = draw_channel_set(*shape, np.array([[1.0, a], [a, 1.0]]), seed)
            got = iterative_waterfilling(cs, p)
            want = iterative_waterfilling_per_user(cs, p, n_max=20, update="simultaneous")
            case = (seed, a, p)
            assert (got.iterations, got.converged) == (want.iterations, want.converged), case
            assert got.rates == pytest.approx(want.rates, rel=1e-12, abs=0.0), case
            assert got.deltas == pytest.approx(want.deltas, rel=1e-9, abs=1e-12 * p), case
            assert np.abs(got.q1.q - want.q1.q).max() <= 1e-12 * p, case
            assert np.abs(got.q2.q - want.q2.q).max() <= 1e-12 * p, case

    @pytest.mark.parametrize("shape", GAME_SHAPES, ids=lambda s: "%dx%d" % s)
    def test_stacked_final_rates_are_two_achievable_rates(self, shape):
        # one stacked pass scores both users exactly as two separate
        # `achievable_rate` calls on their `interference_cov`s
        for seed, a, p in itertools.product(range(1, 31), (0.3, 1.0), (0.1, 50.0)):
            cs = draw_channel_set(*shape, np.array([[1.0, a], [a, 1.0]]), seed)
            res = iterative_waterfilling(cs, p)
            q1, q2 = res.q1.q, res.q2.q
            want = (
                achievable_rate(cs.h11, interference_cov(cs.h12, q2), q1),
                achievable_rate(cs.h22, interference_cov(cs.h21, q1), q2),
            )
            assert res.rates == want, (seed, a, p)

    def test_rounds_part_from_the_oracle_only_at_the_threshold(self):
        # draw 9 is the 3x2 channel of seed 39 at cross gain 1.0, whose
        # oracle game takes a step of 1.0000001e-10 at P = 1: a step that
        # close to the stop threshold may land on either side of it
        knife = iterative_waterfilling_per_user(
            draw_channel_set(3, 2, np.ones((2, 2)), 39), 1.0
        )
        assert min(abs(d - 1e-10) for d in knife.deltas) <= 1e-6 * 1e-10
        for p in (1.0, 50.0):
            rate, q, parted = game_census(60, 30, p)
            assert rate <= 1e-12 and q <= 1e-12
            assert all(d <= 1e-6 for d in parted), parted

    def test_checks_only_the_returned_covariances(self, monkeypatch):
        # a round checks its powers in spectral form and whitens by `solve`:
        # `check_covariances` runs once per returned TxCovariance, and
        # `inv_sqrt_psd` once, on the stack of both final rates' whitenings
        calls = {"check_covariances": 0, "inv_sqrt_psd": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        checking = counted("check_covariances", metrics.check_covariances)
        whitening = counted("inv_sqrt_psd", linalg.inv_sqrt_psd)
        for module in (beamformers, metrics):
            monkeypatch.setattr(module, "check_covariances", checking, raising=False)
            monkeypatch.setattr(module, "inv_sqrt_psd", whitening)
        res = iterative_waterfilling(draw_channel_set(4, 4, ALPHA, seed=2), 50.0)
        assert res.iterations > 2
        assert calls == {"check_covariances": 2, "inv_sqrt_psd": 1}

    def test_zero_direct_link(self):
        # no ChannelSet holds a zero link, but the game reads only the links
        cs = draw_channel_set(2, 3, ALPHA, seed=1)
        links = {name: getattr(cs, name) for name in ("h11", "h12", "h21", "m_t", "m_r")}
        silent = types.SimpleNamespace(**links, h22=np.zeros_like(cs.h22))
        with pytest.raises(DegenerateChannelError, match="no mode to fill"):
            iterative_waterfilling(silent, 1.0)
        assert iterative_waterfilling(silent, 0.0).rates == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, -1e-3])
    def test_bad_power_raises(self, bad, monkeypatch):
        real = beamformers._fill

        def broken(gain, p):
            powers = real(gain, p)
            powers[1, -1] = bad
            return powers

        monkeypatch.setattr(beamformers, "_fill", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="negative or non-finite power"):
                iterative_waterfilling(draw_channel_set(3, 3, ALPHA, seed=4), 5.0)

    @pytest.mark.parametrize("n_max", [0, -3, 2.5, "3", True, None])
    def test_round_limit_must_be_a_positive_int(self, n_max):
        # the round limit is a setting of the oracle's game only
        cs = draw_channel_set(2, 2, ALPHA, seed=4)
        with pytest.raises(InvalidInputError, match="n_max must be an integer >= 1"):
            iterative_waterfilling_per_user(cs, 1.0, n_max=n_max)

    def test_numpy_round_limit_accepted(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=4)
        res = iterative_waterfilling_per_user(cs, 1.0, n_max=np.int64(3))
        assert res.deltas == iterative_waterfilling_per_user(cs, 1.0, n_max=3).deltas
        # production's game takes another arithmetic route to the same steps
        assert res.deltas == pytest.approx(iterative_waterfilling(cs, 1.0).deltas[:3], rel=1e-12)

    @pytest.mark.parametrize("p", [np.inf, -np.inf, np.nan, -1.0])
    def test_budget_checked_before_any_work(self, p):
        cs = draw_channel_set(2, 2, ALPHA, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="power budget must be finite nonnegative"):
                iterative_waterfilling(cs, p)

    @pytest.mark.parametrize("update", ["simultaneous", "sequential"])
    def test_zero_budget(self, update):
        # production's game, and the oracle's under either update rule
        cs = draw_channel_set(3, 2, ALPHA, seed=4)
        for res in (
            iterative_waterfilling(cs, 0.0),
            iterative_waterfilling_per_user(cs, 0.0, update=update),
        ):
            assert res.converged and res.iterations == 1 and res.deltas == [0.0]
            assert res.rates == (0.0, 0.0)
            assert not res.q1.q.any() and not res.q2.q.any()
            assert res.q1.q.shape == res.q2.q.shape == (3, 3)


class TestEhEhOptimal:
    @pytest.mark.parametrize("shape", GAME_SHAPES, ids=lambda s: "%dx%d" % s)
    def test_energy_helper_is_the_optimum_total(self, shape):
        # the runner's (harvest, harvest) row reads the helper alone
        for seed, p in itertools.product(range(1, 31), (0.1, 50.0)):
            cs = draw_channel_set(*shape, ALPHA, seed)
            total, tops = beamformers._eh_eh_energy(cs, p)
            q1, q2, want = eh_eh_optimal(cs, p)
            assert total == want
            for v, q in zip(tops, (q1, q2)):
                assert np.allclose(p * np.outer(v, v.conj()), q.q, rtol=0.0, atol=1e-12 * p)

    def test_total_matches_stacked_gain(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=8)
        p = 4.0
        q1, q2, total = eh_eh_optimal(cs, p)
        want = sum(
            p * np.linalg.svd(stacked_channel(cs, tx), compute_uv=False)[0] ** 2
            for tx in (1, 2)
        )
        assert total == pytest.approx(want, rel=1e-12)
        assert q1.trace == pytest.approx(p)
        assert q2.trace == pytest.approx(p)

    def test_dominates_random_search(self):
        cs = draw_channel_set(3, 3, ALPHA, seed=9)
        p = 2.0
        _, _, total = eh_eh_optimal(cs, p)
        for tx, rank in ((1, 1), (2, 3)):
            hbar = stacked_channel(cs, tx)
            g = hbar.conj().T @ hbar

            def obj(qs):
                return np.einsum("ij,kji->k", g, qs).real

            best, _ = random_psd_search(obj, 3, p, rank=rank, trials=4000, seed=100 + tx)
            solo = p * np.linalg.svd(hbar, compute_uv=False)[0] ** 2
            assert best <= solo + 1e-9


class TestFixedBeams:
    def test_meb_diagonal(self):
        b = meb(np.diag([2.0, 1.0]).astype(complex), 3.0)
        assert np.allclose(b.v, [1.0, 0.0])
        assert b.power == 3.0

    def test_mlb_null_space(self):
        h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        b = mlb(h, 2.0)
        assert np.allclose(b.v, [0.0, 1.0])
        assert np.linalg.norm(h @ b.v) < 1e-14

    def test_meb_census(self):
        rng = np.random.default_rng(55)
        h = _cgauss(rng, 4, 4)
        b = meb(h, 1.0)
        own = np.linalg.norm(h @ b.v) ** 2
        dirs = _unit_dirs(rng, 4, 10_000)
        assert np.max(np.linalg.norm(h @ dirs, axis=0) ** 2) <= own * (1.0 + 1e-9)

    def test_mlb_census(self):
        rng = np.random.default_rng(56)
        h = _cgauss(rng, 4, 4)
        b = mlb(h, 1.0)
        leak = np.linalg.norm(h @ b.v) ** 2
        dirs = _unit_dirs(rng, 4, 10_000)
        assert np.min(np.linalg.norm(h @ dirs, axis=0) ** 2) >= leak * (1.0 - 1e-9)

    def test_meb_rank2_diagonal(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        q = meb_rank2(h, 2.0, split=0.5)
        assert np.allclose(q.q, np.eye(2), atol=1e-12)
        e = np.trace(h @ q.q @ h.conj().T).real
        assert e == pytest.approx(5.0)

    def test_meb_rank2_split_one_is_meb(self):
        rng = np.random.default_rng(57)
        h = _cgauss(rng, 3, 3)
        q = meb_rank2(h, 4.0, split=1.0)
        assert np.allclose(q.q, meb(h, 4.0).covariance().q, atol=1e-10)

    def test_meb_rank2_has_two_streams(self):
        rng = np.random.default_rng(58)
        h = _cgauss(rng, 3, 3)
        q = meb_rank2(h, 4.0, split=0.7)
        w = np.linalg.eigvalsh(q.q)
        assert np.sum(w > 1e-9 * 4.0) == 2

    def test_meb_rank2_validation(self):
        with pytest.raises(InvalidInputError):
            meb_rank2(np.ones((2, 1), dtype=complex), 1.0)
        with pytest.raises(InvalidInputError):
            meb_rank2(np.eye(2, dtype=complex), 1.0, split=1.5)


class TestSlerBeam:
    def test_zero_target_identity_cross(self):
        # floor off, whitening trivial: best direction is the top mode
        b = sler_beam(np.diag([2.0, 1.0]).astype(complex), np.eye(2), 0.0, 1.0)
        assert np.allclose(b.v, [1.0, 0.0], atol=1e-12)

    def test_large_target_aligns_with_energy_beam(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            h11 = _cgauss(rng, 3, 3)
            h21 = _cgauss(rng, 3, 3)
            p1 = 2.0
            e_bar = 1e8 * p1 * np.linalg.norm(h11, 2) ** 2
            b = sler_beam(h11, h21, e_bar, p1)
            assert abs(np.vdot(b.v, meb(h11, p1).v)) > 0.999

    def test_census_against_random_directions(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            h11 = _cgauss(rng, 3, 3)
            h21 = _cgauss(rng, 3, 3)
            p1 = 3.0
            e_bar = float(rng.uniform(0.0, 2.0 * p1 * np.linalg.norm(h11, 2) ** 2))
            b = sler_beam(h11, h21, e_bar, p1)
            best = sler(b, h11, h21, e_bar)
            from swiptifc import canonical_beam

            for _ in range(200):
                v = canonical_beam(_cgauss(rng, 3), p1)
                assert sler(v, h11, h21, e_bar) <= best * (1.0 + 1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(63)
        h11 = _cgauss(rng, 3, 3)
        h21 = _cgauss(rng, 3, 3)
        e_bar, p1, c = 5.0, 2.0, 3.0
        a = sler_beam(h11, h21, e_bar, p1)
        b = sler_beam(c * h11, c * h21, c**2 * e_bar, p1)
        assert abs(np.vdot(a.v, b.v)) > 1.0 - 1e-9

    def test_ridge_fallback_on_shared_null(self):
        h11 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        h21 = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.warns(UserWarning):
            b = sler_beam(h11, h21, 0.0, 1.0)
        assert np.linalg.norm(b.v) == pytest.approx(1.0)

    def test_rejects_bad_power(self):
        with pytest.raises(InvalidInputError):
            sler_beam(np.eye(2), np.eye(2), 1.0, 0.0)


class TestStackedBeams:
    """Both ratio beams come from one routine, `_ratio_directions`, over one
    `_ratio_factor` of the link pair."""

    def test_stacked_directions_match_single_beams(self):
        from swiptifc.beamformers import _ratio_directions, _ratio_factor
        from swiptifc.linalg import spectral_norm
        from swiptifc.metrics import canonical_directions, sler_floor

        rng = np.random.default_rng(64)
        for m_r, m_t in ((2, 2), (2, 3), (4, 4)):
            h11 = _cgauss(rng, m_r, m_t)
            h21 = _cgauss(rng, m_r, m_t)
            p1s = rng.uniform(0.1, 10.0, 12)
            e_bars = rng.uniform(0.0, 3.0, 12) * p1s * np.linalg.norm(h11, 2) ** 2
            norm2 = spectral_norm(h11) ** 2
            floors = sler_floor(norm2, e_bars, p1s)
            scalar = [max(e / q - norm2, 0.0) for e, q in zip(e_bars.tolist(), p1s.tolist())]
            assert floors.view(np.uint64).tolist() == np.array(scalar).view(np.uint64).tolist()
            assert np.any(floors == 0.0) and np.any(floors > 0.0)
            fac = _ratio_factor(h11, h21)
            sl = canonical_directions(_ratio_directions(*fac, floors))
            sn = canonical_directions(_ratio_directions(*fac, m_r / p1s))
            for i in range(12):
                assert np.array_equal(sl[i], sler_beam(h11, h21, e_bars[i], p1s[i]).v)
                assert np.array_equal(sn[i], slnr_beam(h11, h21, p1s[i]).v)
                # SLER at the floor M_r / P1 is SLNR
                e_slnr = p1s[i] * norm2 + m_r
                same = sler_beam(h11, h21, e_slnr, p1s[i]).v
                assert 1.0 - abs(np.vdot(same, sn[i])) <= 1e-12

    def test_stacked_links_match_single_links(self):
        # a stack of link pairs, one per row, builds each row's beam as its
        # own pair does
        from swiptifc.beamformers import _ratio_directions, _ratio_factor

        rng = np.random.default_rng(65)
        for m_r, m_t in ((2, 2), (2, 3), (3, 2), (4, 4)):
            h11 = _cgauss(rng, 6, m_r, m_t)
            h21 = _cgauss(rng, 6, m_r, m_t)
            floors = np.array([0.0, 0.5, 0.0, 2.0, 7.0, 0.0])
            p1s = rng.uniform(0.1, 10.0, 6)
            fac = _ratio_factor(h11, h21)
            sl = _ratio_directions(*fac, floors)
            sn = _ratio_directions(*fac, m_r / p1s)
            for i in range(6):
                one = _ratio_factor(h11[i], h21[i])
                assert np.array_equal(sl[i], _ratio_directions(*one, floors[i : i + 1])[0])
                assert np.array_equal(sn[i], _ratio_directions(*one, m_r / p1s[i : i + 1])[0])

    @pytest.mark.parametrize("m_t", [3, 4])
    def test_zero_floor_takes_null_space_limit(self, m_t):
        # with M_t > M_r the cross link has a null space: at floor 0 the beam
        # is the best direct-link direction inside it, the limit of small floors
        from swiptifc.beamformers import _ratio_directions, _ratio_factor
        from swiptifc.metrics import canonical_directions
        from swiptifc.oracle import generalized_eig_max

        rng = np.random.default_rng(66)
        for _ in range(10):
            h11 = _cgauss(rng, 2, m_t)
            h21 = _cgauss(rng, 2, m_t)
            v = canonical_directions(_ratio_directions(*_ratio_factor(h11, h21), [0.0]))[0]
            assert np.linalg.norm(h21 @ v) <= 1e-13
            null = np.linalg.svd(h21)[2].conj().T[:, 2:]
            g = null.conj().T @ h11.conj().T @ h11 @ null
            want = null @ np.linalg.eigh(g)[1][:, -1]
            assert 1.0 - abs(np.vdot(want, v)) <= 1e-14
            g11, g21 = h11.conj().T @ h11, h21.conj().T @ h21
            _, near = generalized_eig_max(g11, g21 + 1e-9 * np.eye(m_t))
            assert 1.0 - abs(np.vdot(near, v)) <= 1e-12


    @staticmethod
    def _spy(monkeypatch):
        # the rows handed to the null-space route, per call
        real, calls = beamformers._null_limit, []

        def spying(lam, g, floors):
            calls.append(len(floors))
            return real(lam, g, floors)

        monkeypatch.setattr(beamformers, "_null_limit", spying)
        return calls

    @staticmethod
    def _general(lam, u, g, floors):
        # every floor through the null-space route, which leaves a row
        # without a null direction as the plain route does
        d, y = beamformers._null_limit(lam, g, np.asarray(floors, dtype=float))
        return (u @ (d * y[:, :, -1])[:, :, None])[..., 0]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_square_links_skip_the_null_space_route(self, m, monkeypatch):
        from swiptifc.beamformers import _ratio_directions, _ratio_factor

        calls = self._spy(monkeypatch)
        rng = np.random.default_rng(67 + m)
        for _ in range(10):
            h11, h21 = _cgauss(rng, 4, m, m), _cgauss(rng, 4, m, m)
            floors = np.array([0.0, 1e-9, 0.7, 30.0])
            for fac in (_ratio_factor(h11, h21), _ratio_factor(h11[0], h21[0])):
                got = _ratio_directions(*fac, floors)
                assert calls == []
                assert got.tobytes() == self._general(*fac, floors).tobytes()
                calls.clear()

    @pytest.mark.parametrize("m_t", [3, 4])
    def test_wide_links_take_the_null_space_route(self, m_t, monkeypatch):
        # M_t > M_r: the cross link has a null direction, so every row takes
        # the limit route, and a null direction both links share warns
        from swiptifc.beamformers import _ratio_directions, _ratio_factor

        calls = self._spy(monkeypatch)
        rng = np.random.default_rng(68)
        h11, h21 = _cgauss(rng, 2, m_t), _cgauss(rng, 2, m_t)
        floors = np.array([0.0, 0.5, 0.0, 3.0])
        got = _ratio_directions(*_ratio_factor(h11, h21), floors)
        assert calls == [floors.size]
        assert np.linalg.norm(h21 @ got[0]) <= 1e-13 * np.linalg.norm(got[0])
        shared = np.zeros((2, m_t), dtype=complex)
        shared[:, :2] = h21[:, :2]
        with pytest.warns(UserWarning, match="share a null direction"):
            v = _ratio_directions(*_ratio_factor(shared, h21[:, :2] @ np.eye(2, m_t)), [0.0])
        assert calls == [floors.size, 1] and np.all(np.isfinite(v))


class TestSlnrBeam:
    def test_weak_leak_high_power_is_energy_beam(self):
        rng = np.random.default_rng(71)
        h11 = _cgauss(rng, 3, 3)
        h21 = 1e-9 * _cgauss(rng, 3, 3)
        b = slnr_beam(h11, h21, 1e9)
        assert abs(np.vdot(b.v, meb(h11, 1.0).v)) > 0.999

    def test_maximizes_ratio(self):
        rng = np.random.default_rng(72)
        h11 = _cgauss(rng, 3, 3)
        h21 = _cgauss(rng, 3, 3)
        p1 = 4.0
        b = slnr_beam(h11, h21, p1)
        from swiptifc import canonical_beam, slnr

        best = slnr(b, h11, h21, h11.shape[0] / p1)
        for _ in range(500):
            v = canonical_beam(_cgauss(rng, 3), p1)
            assert slnr(v, h11, h21, h11.shape[0] / p1) <= best * (1.0 + 1e-9)

    def test_rejects_bad_power(self):
        with pytest.raises(InvalidInputError):
            slnr_beam(np.eye(2), np.eye(2), -1.0)
