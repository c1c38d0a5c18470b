import numpy as np
import pytest

from swiptifc.exceptions import (
    InvalidInputError,
    SingularMatrixError,
)
from swiptifc.linalg import (
    _as_real,
    _as_reals,
    as_matrix,
    hermitian_eig,
    hermitian_part,
    inv_sqrt_psd,
    psd_mask,
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


def test_psd_mask():
    mats = [
        np.eye(2),
        np.zeros((2, 2)),
        np.diag([1.0, -1.0]),
        np.array([[1.0, 2.0], [0.0, 1.0]]),  # not Hermitian
        np.diag([1.0, -1e-12]),  # tiny negative eigenvalues inside tolerance still count
    ]
    want = [True, True, False, False, True]
    assert psd_mask(np.array(mats)).tolist() == want
    assert [bool(psd_mask(a)) for a in mats] == want
    assert psd_mask(np.eye(3))


class TestRealInput:
    """Every power, split, energy target and weight taken from outside goes
    through one conversion (`_as_real` for a value, `_as_reals` for a list):
    a non-numeric or boolean value raises InvalidInputError, not a
    ValueError or TypeError of `float`, and a bool is not read as 0 or 1."""

    BAD = ["x", None, True, np.bool_(False), b"1", [1.0], 1j]

    @pytest.mark.parametrize("x", BAD)
    def test_helper_rejects_non_numbers(self, x):
        with pytest.raises(InvalidInputError, match="power budget must be finite nonnegative"):
            _as_real(x, "power budget")

    @pytest.mark.parametrize(
        "x", [np.inf, -np.inf, np.nan, -1.0, pytest.param(10**400, id="int_past_float")]
    )
    def test_helper_rejects_out_of_range(self, x):
        with pytest.raises(InvalidInputError, match="finite nonnegative"):
            _as_real(x, "p")

    @pytest.mark.parametrize(
        "x", [["x"], [0.0, True], np.array([True]), [0.0, None], [b"1"], [1j], [[1.0], [1.0, 2.0]]]
    )
    def test_list_helper_rejects_non_numbers(self, x):
        with pytest.raises(InvalidInputError, match="e_grid must be finite nonnegative"):
            _as_reals(x, "e_grid")

    @pytest.mark.parametrize(
        "x",
        [
            [0.0, np.inf],
            [np.nan],
            [-1.0],
            np.array([0.0, -2.0]),
            pytest.param([1.0, 10**400], id="int_past_float"),
        ],
    )
    def test_list_helper_rejects_out_of_range(self, x):
        with pytest.raises(InvalidInputError, match="finite nonnegative"):
            _as_reals(x, "e_grid")

    def test_list_helper_converts(self):
        got = _as_reals([0, np.int64(2), np.float32(0.5)], "e")
        assert got.dtype == float and got.tolist() == [0.0, 2.0, 0.5]
        assert _as_reals(np.arange(3), "e").dtype == float
        assert _as_reals([[0.0, 1.0]], "e").shape == (1, 2)
        assert _as_reals([], "e").size == 0

    def test_helper_converts(self):
        assert _as_real(np.int64(3), "p") == 3.0 and type(_as_real(np.float32(2.5), "p")) is float
        assert _as_real(0, "p") == 0.0
        with pytest.raises(InvalidInputError, match="p must be finite positive"):
            _as_real(0.0, "p", positive=True)

    @staticmethod
    def _calls():
        import swiptifc as s
        from swiptifc.scheduling import select_modes

        cs = s.draw_channel_set(2, 2, [[1.0, 0.8], [0.8, 1.0]], seed=3)
        sweep = s.re_sweep(cs, "meb", 1.0, n_points=4)
        return {
            "re_sweep": lambda x: s.re_sweep(cs, "meb", x, n_points=4),
            "re_boundary_point": lambda x: s.re_boundary_point(cs, "meb", 0.1, x),
            "emax": lambda x: s.emax(cs, "meb", x),
            "meb_rank2_split": lambda x: s.meb_rank2(cs.h11, 1.0, split=x),
            "solve_p3": lambda x: s.solve_p3(cs.h22, cs.h12, 0.1, x),
            "scheduled_run": lambda x: s.scheduled_run(cs, x, n_points=4),
            # the select_mode cases are the rule at one target
            "select_mode": lambda x: select_modes(cs, [0.1], x),
            "iterative_waterfilling": lambda x: s.iterative_waterfilling(cs, x),
            "time_sharing_weights": lambda x: s.time_sharing_curve(sweep, weights=[0.0, x]),
            "re_sweep_grid": lambda x: s.re_sweep(cs, "meb", 1.0, e_grid=[0.0, x]),
            "re_boundary_point_target": lambda x: s.re_boundary_point(cs, "meb", x, 1.0),
            "solve_p3_target": lambda x: s.solve_p3(cs.h22, cs.h12, x, 1.0),
            "select_mode_target": lambda x: select_modes(cs, [x], 1.0),
            "select_modes_targets": lambda x: select_modes(cs, [0.0, x], 1.0),
            "sler_target": lambda x: s.sler(s.canonical_beam([1.0, 0.0], 1.0), cs.h11, cs.h21, x),
        }

    CALLS = (
        "re_sweep", "re_boundary_point", "emax", "meb_rank2_split", "solve_p3", "scheduled_run",
        "select_mode", "iterative_waterfilling", "time_sharing_weights",
        "re_sweep_grid", "re_boundary_point_target", "solve_p3_target", "select_mode_target",
        "select_modes_targets", "sler_target",
    )

    @pytest.mark.parametrize("call, x", [(c, x) for c in CALLS for x in ("x", None, True)])
    def test_entry_points_reject_non_numbers(self, call, x):
        with pytest.raises(InvalidInputError):
            self._calls()[call](x)
