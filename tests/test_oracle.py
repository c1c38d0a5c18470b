"""Tests for the verification routes: brute-force search, local-optimality
probes, the priced inner maximizer and the link-pair factorization."""

import numpy as np
import pytest

from swiptifc import InvalidInputError, SingularMatrixError, solve_p3, waterfill
from swiptifc.oracle import (
    P3Problem,
    generalized_eig_max,
    grid_kkt_check,
    inner_max,
    lemma1_transform,
    random_psd_search,
)


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestRandomPsdSearch:
    @pytest.mark.parametrize("m, rank", [(1, 1), (3, 1), (4, 2), (4, 4)])
    def test_frames_give_qr_covariances(self, m, rank):
        # Gram-Schmidt frames differ from QR's by a unit phase per column,
        # which no covariance F diag(s) F^H sees
        from swiptifc.oracle import _orthonormal_frames

        rng = np.random.default_rng(5)
        z = _cgauss(rng, 500, m, rank)
        f = _orthonormal_frames(z)
        eye = np.eye(rank)
        assert np.abs(f.conj().swapaxes(-1, -2) @ f - eye).max() <= 1e-14
        qr, _ = np.linalg.qr(z)
        s = rng.dirichlet(np.ones(rank), size=500)
        mine = np.einsum("kmr,kr,knr->kmn", f, s, f.conj())
        want = np.einsum("kmr,kr,knr->kmn", qr, s, qr.conj())
        assert np.abs(mine - want).max() <= 1e-14

    def test_trace_objective_is_exact(self):
        # every draw has trace exactly p, so the best trace is p
        def obj(qs):
            return np.einsum("kii->k", qs).real

        best, q = random_psd_search(obj, 3, 2.5, rank=3, trials=50, seed=0)
        assert best == pytest.approx(2.5, rel=1e-12)
        assert np.trace(q).real == pytest.approx(2.5, rel=1e-12)

    def test_energy_bounded_by_top_singular_value(self):
        rng = np.random.default_rng(5)
        h = _cgauss(rng, 3, 3)
        g = h.conj().T @ h

        def obj(qs):
            return np.einsum("ij,kji->k", g, qs).real

        p = 3.0
        cap = p * np.linalg.svd(h, compute_uv=False)[0] ** 2
        for rank in (1, 2, 3):
            best, _ = random_psd_search(obj, 3, p, rank=rank, trials=2000, seed=rank)
            assert best <= cap + 1e-9

    def test_large_search_approaches_optimum(self):
        rng = np.random.default_rng(6)
        h = _cgauss(rng, 3, 3)
        g = h.conj().T @ h

        def obj(qs):
            return np.einsum("ij,kji->k", g, qs).real

        p = 1.0
        cap = p * np.linalg.svd(h, compute_uv=False)[0] ** 2
        best, _ = random_psd_search(obj, 3, p, rank=1, trials=100_000, seed=7)
        assert best >= cap * 0.98

    def test_deterministic_per_seed(self):
        def obj(qs):
            return np.einsum("kii,kii->k", qs, qs).real

        a = random_psd_search(obj, 2, 1.0, rank=2, trials=500, seed=42)
        b = random_psd_search(obj, 2, 1.0, rank=2, trials=500, seed=42)
        c = random_psd_search(obj, 2, 1.0, rank=2, trials=500, seed=43)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        assert a[0] != c[0]

    def test_validation(self):
        def obj(qs):
            return np.einsum("kii->k", qs).real

        with pytest.raises(InvalidInputError):
            random_psd_search(obj, 2, 1.0, rank=0, trials=10, seed=0)
        with pytest.raises(InvalidInputError):
            random_psd_search(obj, 2, 1.0, rank=3, trials=10, seed=0)
        with pytest.raises(InvalidInputError):
            random_psd_search(obj, 2, 1.0, rank=1, trials=0, seed=0)


class TestGeneralizedEigMax:
    def test_diagonal_pair(self):
        val, vec = generalized_eig_max(np.diag([4.0, 1.0]), np.eye(2))
        assert val == pytest.approx(4.0)
        assert np.allclose(vec, [1.0, 0.0])

    def test_equal_matrices_give_one(self):
        rng = np.random.default_rng(9)
        a = _cgauss(rng, 3, 3)
        g = a @ a.conj().T + 0.1 * np.eye(3)
        val, _ = generalized_eig_max(g, g)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        a = _cgauss(rng, 3, 3)
        num = a @ a.conj().T
        b = _cgauss(rng, 3, 3)
        den = b @ b.conj().T + np.eye(3)
        v1, _ = generalized_eig_max(num, den)
        v2, _ = generalized_eig_max(7.0 * num, 7.0 * den)
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_vector_attains_quotient(self):
        rng = np.random.default_rng(11)
        a = _cgauss(rng, 4, 4)
        num = a @ a.conj().T
        b = _cgauss(rng, 4, 4)
        den = b @ b.conj().T + np.eye(4)
        val, vec = generalized_eig_max(num, den)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        quot = (vec.conj() @ num @ vec).real / (vec.conj() @ den @ vec).real
        assert quot == pytest.approx(val, rel=1e-10)


class TestP3Problem:
    def _problem(self, seed=13, e_target=1.0, p=2.0):
        rng = np.random.default_rng(seed)
        return P3Problem(
            h22_tilde=_cgauss(rng, 3, 3),
            h12=_cgauss(rng, 3, 3),
            e_target=e_target,
            p=p,
        )

    def test_objective_matches_scalar_slogdet(self):
        prob = self._problem()
        rng = np.random.default_rng(14)
        a = _cgauss(rng, 3, 3)
        q = a @ a.conj().T
        got = float(prob.objective(q[None])[0])
        h = prob.h22_tilde
        want = np.linalg.slogdet(np.eye(3) + h @ q @ h.conj().T)[1]
        assert got == pytest.approx(want, rel=1e-12)

    def test_energy_matches_trace(self):
        prob = self._problem()
        rng = np.random.default_rng(15)
        a = _cgauss(rng, 3, 3)
        q = a @ a.conj().T
        want = np.trace(prob.h12 @ q @ prob.h12.conj().T).real
        assert float(prob.energy(q[None])[0]) == pytest.approx(want, rel=1e-12)

    def test_feasible_flags(self):
        prob = self._problem(e_target=0.5, p=1.0)
        zero = np.zeros((3, 3), dtype=complex)
        big = 2.0 * np.eye(3, dtype=complex)
        flags = prob.feasible(np.stack([zero, big]))
        assert not flags[0]  # misses the energy floor
        assert not flags[1]  # blows the power budget
        ok = 0.3 * np.eye(3, dtype=complex)
        e_ok = float(prob.energy(ok[None])[0])
        prob2 = P3Problem(prob.h22_tilde, prob.h12, e_target=e_ok / 2.0, p=1.0)
        assert bool(prob2.feasible(ok[None])[0])


class TestGridKktCheck:
    def _links(self, seed):
        rng = np.random.default_rng(seed)
        return _cgauss(rng, 3, 3), _cgauss(rng, 3, 3)

    def test_waterfilling_passes_when_floor_inactive(self):
        h22t, h12 = self._links(21)
        p = 2.0
        q_wf = waterfill(h22t, None, p)
        e_wf = float(np.trace(h12 @ q_wf.q @ h12.conj().T).real)
        prob = P3Problem(h22t, h12, e_target=e_wf / 2.0, p=p)
        assert grid_kkt_check(prob, q_wf)

    def test_infeasible_candidate_fails(self):
        h22t, h12 = self._links(22)
        prob = P3Problem(h22t, h12, e_target=1.0, p=2.0)
        assert not grid_kkt_check(prob, np.zeros((3, 3), dtype=complex))

    def test_solver_output_passes(self):
        h22t, h12 = self._links(23)
        p = 2.0
        cap = p * np.linalg.svd(h12, compute_uv=False)[0] ** 2
        sol = solve_p3(h22t, h12, 0.6 * cap, p)
        prob = P3Problem(h22t, h12, e_target=0.6 * cap, p=p)
        assert grid_kkt_check(prob, sol[0], step=1e-3)

    def test_interior_suboptimal_point_fails(self):
        h22t, h12 = self._links(24)
        p = 4.0
        # uniform covariance at half power leaves obvious room to improve
        q = (0.5 * p / 3.0) * np.eye(3, dtype=complex)
        e_q = float(np.trace(h12 @ q @ h12.conj().T).real)
        prob = P3Problem(h22t, h12, e_target=e_q / 4.0, p=p)
        assert not grid_kkt_check(prob, q, step=1e-2)


class TestInnerMax:
    def test_balanced_price_gives_zero(self):
        # unit modes priced at exactly their inverse gain: nothing to fill
        q = inner_max(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert np.allclose(q.q, 0.0, atol=1e-12)

    def test_cheap_price_fills_uniformly(self):
        q = inner_max(0.25 * np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert np.allclose(q.q, 3.0 * np.eye(2), atol=1e-9)

    def test_scalar_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(0.05, 5.0))
            h = float(rng.uniform(0.1, 3.0))
            q = inner_max(np.array([[a]], dtype=complex), np.array([[h]], dtype=complex))
            want = max(1.0 / a - 1.0 / h**2, 0.0)
            assert q.q[0, 0].real == pytest.approx(want, abs=1e-9)

    def test_non_pd_price_raises(self):
        with pytest.raises(SingularMatrixError):
            inner_max(np.diag([1.0, -0.1]).astype(complex), np.eye(2, dtype=complex))


class TestLemma1:
    def test_identity_links(self):
        res = lemma1_transform(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        assert res.residual_own < 1e-10
        assert res.residual_cross < 1e-10
        assert np.allclose(res.sigma_g, 1.0)

    def test_random_square(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            h_own = _cgauss(rng, 3, 3)
            h_cross = _cgauss(rng, 3, 3)
            res = lemma1_transform(h_own, h_cross)
            assert res.residual_own < 1e-8
            assert res.residual_cross < 1e-8
            assert np.all(np.diff(res.sigma_g) <= 1e-12)
            # reconstruction through the reported factors
            d_a = res.u_g.conj().T @ h_own @ res.t
            d_b = res.v_g.conj().T @ h_cross @ res.t
            assert np.linalg.norm(d_a - np.diag(np.diag(d_a))) < 1e-8
            assert np.linalg.norm(d_b - np.diag(np.diag(d_b))) < 1e-8

    def test_tall_links(self):
        rng = np.random.default_rng(82)
        res = lemma1_transform(_cgauss(rng, 4, 3), _cgauss(rng, 4, 3))
        assert res.residual_own < 1e-8
        assert res.residual_cross < 1e-8
        # receive-side bases are completed to full unitaries
        assert res.u_g.shape == (4, 4)
        assert res.v_g.shape == (4, 4)
        assert np.allclose(res.v_g.conj().T @ res.v_g, np.eye(4), atol=1e-10)
        assert res.t.shape == (3, 3)
        assert res.sigma_g.shape == (3,)

    def test_wide_links_rejected(self):
        rng = np.random.default_rng(83)
        with pytest.raises(InvalidInputError):
            lemma1_transform(_cgauss(rng, 2, 3), _cgauss(rng, 2, 3))
