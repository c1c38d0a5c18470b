"""Tests for rate, energy and leakage-ratio metrics."""

import numpy as np
import pytest

from swiptifc import (
    Beamformer,
    InvalidInputError,
    TxCovariance,
    achievable_rate,
    canonical_beam,
    draw_channel_set,
    harvested_energy,
    interference_cov,
    sler,
    slnr,
)


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _random_cov(rng, m, p):
    a = _cgauss(rng, m, m)
    q = a @ a.conj().T
    q *= p / np.trace(q).real
    return q


class TestTxCovariance:
    def test_trace_property(self):
        q = TxCovariance(np.diag([1.0, 2.0]).astype(complex), 4.0)
        assert q.trace == pytest.approx(3.0)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            TxCovariance(np.zeros((2, 3), dtype=complex), 1.0)

    def test_rejects_non_psd(self):
        with pytest.raises(InvalidInputError):
            TxCovariance(np.diag([1.0, -0.5]).astype(complex), 2.0)

    def test_rejects_non_hermitian(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidInputError):
            TxCovariance(m, 3.0)

    def test_rejects_budget_violation(self):
        with pytest.raises(InvalidInputError):
            TxCovariance(np.eye(2, dtype=complex), 1.5)

    def test_rejects_negative_budget(self):
        with pytest.raises(InvalidInputError):
            TxCovariance(np.zeros((2, 2), dtype=complex), -1.0)

    def test_budget_slack_accepted(self):
        # trace a hair over budget is still fine
        TxCovariance((1.0 + 1e-10) * np.eye(2, dtype=complex), 2.0)


class TestBeamformer:
    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            Beamformer(np.array([1.0, 1.0], dtype=complex), 1.0)

    def test_rejects_matrix_input(self):
        with pytest.raises(InvalidInputError):
            Beamformer(np.eye(2, dtype=complex), 1.0)

    def test_rejects_negative_power(self):
        with pytest.raises(InvalidInputError):
            Beamformer(np.array([1.0, 0.0], dtype=complex), -2.0)

    def test_covariance_is_rank_one(self):
        v = np.array([1.0, 1j], dtype=complex) / np.sqrt(2.0)
        q = Beamformer(v, 5.0).covariance()
        assert q.trace == pytest.approx(5.0)
        w = np.linalg.eigvalsh(q.q)
        assert w[-1] == pytest.approx(5.0)
        assert abs(w[0]) < 1e-12

    def test_canonical_beam_phase(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = _cgauss(rng, 4)
            b = canonical_beam(v, 2.0)
            assert np.linalg.norm(b.v) == pytest.approx(1.0)
            idx = np.flatnonzero(np.abs(b.v) > 1e-12)[0]
            assert b.v[idx].imag == 0.0
            assert b.v[idx].real > 0.0
            # same direction as the input
            assert abs(abs(np.vdot(b.v, v)) - np.linalg.norm(v)) < 1e-10

    def test_canonical_beam_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            canonical_beam(np.zeros(3, dtype=complex), 1.0)


class TestInterferenceCov:
    def test_identity_plus_term(self):
        h = np.array([[2.0]], dtype=complex)
        q = np.array([[3.0]], dtype=complex)
        r = interference_cov(h, q)
        assert r[0, 0] == pytest.approx(13.0)

    def test_eigenvalues_above_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = _cgauss(rng, 3, 3)
            r = interference_cov(h, _random_cov(rng, 3, 2.0))
            assert np.linalg.eigvalsh(r).min() >= 1.0 - 1e-10

    def test_accepts_tx_covariance(self):
        h = np.eye(2, dtype=complex)
        q = TxCovariance(np.eye(2, dtype=complex), 2.0)
        r = interference_cov(h, q)
        assert np.allclose(r, 2.0 * np.eye(2))


class TestAchievableRate:
    def test_scalar_formula(self):
        # log2(1 + |h|^2 p / r) for 1x1
        h = np.array([[2.0]], dtype=complex)
        r = np.array([[4.0]], dtype=complex)
        q = np.array([[3.0]], dtype=complex)
        assert achievable_rate(h, r, q) == pytest.approx(np.log2(1.0 + 4.0 * 3.0 / 4.0))

    def test_diagonal_two_by_two(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        q = np.diag([1.0, 4.0]).astype(complex)
        want = np.log2(1.0 + 4.0) + np.log2(1.0 + 4.0)
        assert achievable_rate(h, np.eye(2, dtype=complex), q) == pytest.approx(want)

    def test_zero_covariance(self):
        h = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
        assert achievable_rate(h, np.eye(2, dtype=complex), np.zeros((2, 2))) == 0.0

    def test_matches_unsymmetrized_form(self):
        # det(I + R^{-1/2} H Q H^H R^{-1/2}) = det(I + H^H R^{-1} H Q)
        rng = np.random.default_rng(29)
        for _ in range(500):
            m = int(rng.integers(1, 5))
            h = _cgauss(rng, m, m)
            q = _random_cov(rng, m, float(rng.uniform(0.1, 10.0)))
            a = _cgauss(rng, m, m)
            r = np.eye(m) + a @ a.conj().T
            got = achievable_rate(h, r, q)
            direct = np.log2(
                np.linalg.det(np.eye(m) + h.conj().T @ np.linalg.inv(r) @ h @ q).real
            )
            assert got == pytest.approx(direct, abs=1e-8)

    def test_accepts_tx_covariance(self):
        h = np.eye(2, dtype=complex)
        q = TxCovariance(np.eye(2, dtype=complex), 2.0)
        assert achievable_rate(h, np.eye(2), q) == pytest.approx(2.0)


class TestHarvestedEnergy:
    def test_identity_channels(self):
        cs = draw_channel_set(2, 2, np.ones((2, 2)), seed=0)
        q1 = np.eye(2, dtype=complex)
        q2 = 2.0 * np.eye(2, dtype=complex)
        want1 = np.linalg.norm(cs.h11, "fro") ** 2 + 2.0 * np.linalg.norm(cs.h12, "fro") ** 2
        assert harvested_energy(cs, q1, q2, 1) == pytest.approx(want1)
        want2 = np.linalg.norm(cs.h21, "fro") ** 2 + 2.0 * np.linalg.norm(cs.h22, "fro") ** 2
        assert harvested_energy(cs, q1, q2, 2) == pytest.approx(want2)

    def test_linearity_in_q(self):
        rng = np.random.default_rng(17)
        cs = draw_channel_set(3, 3, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=5)
        qa = _random_cov(rng, 3, 1.0)
        qb = _random_cov(rng, 3, 2.0)
        z = np.zeros((3, 3))
        e_sum = harvested_energy(cs, qa + qb, z, 1)
        e_parts = harvested_energy(cs, qa, z, 1) + harvested_energy(cs, qb, z, 1)
        assert e_sum == pytest.approx(e_parts)

    def test_rejects_bad_receiver(self):
        cs = draw_channel_set(2, 2, np.ones((2, 2)), seed=0)
        z = np.zeros((2, 2))
        with pytest.raises(InvalidInputError):
            harvested_energy(cs, z, z, 3)


class TestSler:
    def test_scalar_no_floor(self):
        v = Beamformer(np.array([1.0 + 0j]), 1.0)
        got = sler(v, np.array([[1.0]]), np.array([[1.0]]), 0.0)
        assert got == pytest.approx(1.0)

    def test_floor_arithmetic(self):
        # own gain 4, cross gain 1, power 2, target 10 -> floor = 10 - 2*4 = 2
        v = Beamformer(np.array([1.0 + 0j]), 2.0)
        got = sler(v, np.array([[2.0]]), np.array([[1.0]]), 10.0)
        assert got == pytest.approx(2.0 * 4.0 / (2.0 * 1.0 + 2.0))

    def test_inactive_floor_matches_no_floor_ratio(self):
        rng = np.random.default_rng(41)
        h11 = _cgauss(rng, 3, 3)
        h21 = _cgauss(rng, 3, 3)
        v = canonical_beam(_cgauss(rng, 3), 4.0)
        no_floor = np.linalg.norm(h11 @ v.v) ** 2 / np.linalg.norm(h21 @ v.v) ** 2
        assert sler(v, h11, h21, 0.0) == pytest.approx(no_floor)

    def test_zero_denominator_is_inf(self):
        v = Beamformer(np.array([1.0 + 0j, 0.0]), 1.0)
        got = sler(v, np.eye(2), np.zeros((2, 2)), 0.0)
        assert got == float("inf")

    def test_power_scale_invariant_without_floor(self):
        rng = np.random.default_rng(43)
        h11 = _cgauss(rng, 2, 2)
        h21 = _cgauss(rng, 2, 2)
        d = _cgauss(rng, 2)
        a = sler(canonical_beam(d, 1.0), h11, h21, 0.0)
        b = sler(canonical_beam(d, 9.0), h11, h21, 0.0)
        assert a == pytest.approx(b)

    def test_huge_target_favors_top_singular_direction(self):
        # dominant floor turns the ratio into ||H11 v||^2 / const
        rng = np.random.default_rng(47)
        for _ in range(100):
            h11 = _cgauss(rng, 3, 3)
            h21 = _cgauss(rng, 3, 3)
            _, _, vh = np.linalg.svd(h11)
            best = canonical_beam(vh[0].conj(), 1.0)
            e_huge = 1e6 * np.linalg.norm(h11, 2) ** 2
            s_best = sler(best, h11, h21, e_huge)
            for _ in range(10):
                other = canonical_beam(_cgauss(rng, 3), 1.0)
                assert sler(other, h11, h21, e_huge) <= s_best * (1.0 + 1e-9)

    def test_rejects_raw_vector(self):
        with pytest.raises(InvalidInputError):
            sler(np.array([1.0 + 0j]), np.eye(1), np.eye(1), 0.0)

    def test_rejects_negative_target(self):
        v = Beamformer(np.array([1.0 + 0j]), 1.0)
        with pytest.raises(InvalidInputError):
            sler(v, np.eye(1), np.eye(1), -1.0)

    @pytest.mark.parametrize("e_bar", [0.0, 1.0])
    def test_rejects_zero_power_beam(self, e_bar):
        # the floor is per unit transmit power, so P1 = 0 has no ratio
        v = Beamformer(np.array([1.0 + 0j, 0.0]), 0.0)
        with pytest.raises(InvalidInputError, match="power"):
            sler(v, np.eye(2), np.eye(2), e_bar)


class TestSlnr:
    def test_scalar_example(self):
        v = Beamformer(np.array([1.0 + 0j]), 1.0)
        got = slnr(v, np.array([[2.0]]), np.array([[np.sqrt(3.0)]]), 1.0)
        assert got == pytest.approx(1.0)

    def test_rejects_nonpositive_floor(self):
        v = Beamformer(np.array([1.0 + 0j]), 1.0)
        with pytest.raises(InvalidInputError):
            slnr(v, np.eye(1), np.eye(1), 0.0)

    def test_rejects_raw_vector(self):
        with pytest.raises(InvalidInputError):
            slnr(np.array([1.0 + 0j]), np.eye(1), np.eye(1), 1.0)
