import numpy as np
import pytest

from swiptifc.exceptions import (
    InvalidInputError,
    RankDeficiencyError,
    SingularMatrixError,
)
from swiptifc.linalg import (
    TOL,
    _as_real,
    as_matrix,
    hermitian_eig,
    hermitian_part,
    inv_sqrt_psd,
    is_psd,
    qrd,
    spectral_norm,
    svd,
)


def _cgauss(rng, *shape):
    z = rng.standard_normal((*shape, 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros(3), "x")
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), "x")
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]), "x")
    out = as_matrix([[1, 2], [3, 4]], "x")
    assert out.dtype == np.complex128


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = _cgauss(rng, 4, 3)
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_svd_full_and_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        a = _cgauss(rng, m, n)
        u, s, v = svd(a)
        assert u.shape == (m, m) and v.shape == (n, n)
        k = min(m, n)
        assert np.all(np.diff(s) <= 1e-15)
        rec = (u[:, :k] * s[None, :]) @ v[:, :k].conj().T
        assert np.linalg.norm(rec - a) < 1e-12 * max(1.0, np.linalg.norm(a))


def test_hermitian_eig_descending_and_orthonormal():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        a = _cgauss(rng, m, m)
        a = a @ a.conj().T
        w, v = hermitian_eig(a)
        assert np.all(np.diff(w) <= 1e-12 * max(1.0, abs(w[0])))
        assert np.linalg.norm(v.conj().T @ v - np.eye(m)) < 1e-12
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - a) < 1e-10 * max(
            1.0, np.linalg.norm(a)
        )


def test_hermitian_eig_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InvalidInputError):
        hermitian_eig(a)


def test_qrd_thin_with_real_positive_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 3 * n + 1))
        a = _cgauss(rng, m, n)
        q, r = qrd(a)
        assert q.shape == (m, n) and r.shape == (n, n)
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-12
        d = np.diag(r)
        assert np.all(d.imag == 0.0) and np.all(d.real > 0.0)
        assert np.linalg.norm(q @ r - a) < 1e-12 * max(1.0, np.linalg.norm(a))
        # strictly upper triangular below the diagonal
        assert np.allclose(np.tril(r, -1), 0.0)


def test_qrd_flags_rank_deficiency():
    a = np.ones((4, 2), dtype=complex)  # rank 1
    with pytest.raises(RankDeficiencyError):
        qrd(a)


def test_inv_sqrt_psd_inverts_square_root():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        b = _cgauss(rng, m, m)
        a = b @ b.conj().T + 0.1 * np.eye(m)
        w = inv_sqrt_psd(a)
        assert np.linalg.norm(hermitian_part(w) - w) < 1e-12 * np.linalg.norm(w)
        assert np.linalg.norm(w @ a @ w - np.eye(m)) < 1e-9


def test_inv_sqrt_psd_rejects_singular():
    with pytest.raises(SingularMatrixError):
        inv_sqrt_psd(np.diag([1.0, 0.0]).astype(complex))


def test_is_psd():
    assert is_psd(np.eye(3))
    assert is_psd(np.zeros((2, 2)))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert not is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not Hermitian
    # tiny negative eigenvalues inside tolerance still count
    assert is_psd(np.diag([1.0, -1e-12]))


def test_tolerances_frozen():
    with pytest.raises(Exception):
        TOL.psd = 1.0


class TestRealInput:
    """Every power, split and weight taken from outside goes through one
    conversion: a non-numeric or boolean value raises InvalidInputError, not
    a ValueError or TypeError of `float`, and a bool is not read as 0 or 1."""

    BAD = ["x", None, True, np.bool_(False), b"1", [1.0], 1j]

    @pytest.mark.parametrize("x", BAD)
    def test_helper_rejects_non_numbers(self, x):
        with pytest.raises(InvalidInputError, match="power budget must be finite nonnegative"):
            _as_real(x, "power budget")

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, -1.0])
    def test_helper_rejects_out_of_range(self, x):
        with pytest.raises(InvalidInputError, match="finite nonnegative"):
            _as_real(x, "p")

    def test_helper_converts(self):
        assert _as_real(np.int64(3), "p") == 3.0 and type(_as_real(np.float32(2.5), "p")) is float
        assert _as_real(0, "p") == 0.0
        with pytest.raises(InvalidInputError, match="p must be finite positive"):
            _as_real(0.0, "p", positive=True)

    @staticmethod
    def _calls():
        import swiptifc as s

        cs = s.draw_channel_set(2, 2, [[1.0, 0.8], [0.8, 1.0]], seed=3)
        sweep = s.re_sweep(cs, "meb", 1.0, n_points=4)
        return {
            "re_sweep": lambda x: s.re_sweep(cs, "meb", x, n_points=4),
            "re_boundary_point": lambda x: s.re_boundary_point(cs, "meb", 0.1, x),
            "emax": lambda x: s.emax(cs, "meb", x),
            "emax_split": lambda x: s.emax(cs, "meb_rank2", 1.0, split=x),
            "solve_p3": lambda x: s.solve_p3(cs.h22, cs.h12, 0.1, x),
            "scheduled_run": lambda x: s.scheduled_run(cs, x, n_points=4),
            "select_mode": lambda x: s.select_mode(cs, 0.1, x),
            "evaluate_all_modes": lambda x: s.evaluate_all_modes(cs, x, n_points=4),
            "iterative_waterfilling": lambda x: s.iterative_waterfilling(cs, x),
            "time_sharing_weights": lambda x: s.time_sharing_curve(sweep, weights=[0.0, x]),
        }

    SCALARS = (
        "re_sweep", "re_boundary_point", "emax", "emax_split", "solve_p3", "scheduled_run",
        "select_mode", "evaluate_all_modes", "iterative_waterfilling",
    )

    # a weight list is converted as a numpy array, which reads True as 1.0
    @pytest.mark.parametrize(
        "call, x",
        [(c, x) for c in SCALARS for x in ("x", None, True)]
        + [("time_sharing_weights", x) for x in ("x", None)],
    )
    def test_entry_points_reject_non_numbers(self, call, x):
        with pytest.raises(InvalidInputError):
            self._calls()[call](x)
