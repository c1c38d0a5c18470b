"""The benchmark's reference computations against slower brute-force routes.

    python3 -m pytest -q perfbench/test_reference.py

These check the checker: the exact water level against a dense scan of
water levels, the Sherman-Morrison endpoint rate against a direct log-det,
and the channel draw against the model's stated normalization.
"""

import math

import numpy as np
import pytest

import reference as ref

P = 50.0


def _channels(m, seed, off=0.8):
    return ref.draw_channels(m, m, [[1.0, off], [off, 1.0]], seed)


def wf_capacity_scan(h, p, n=200_001):
    """Capacity at the water level found by scanning a dense grid of levels
    and interpolating linearly where the spent power crosses p."""
    d = np.linalg.svd(h, compute_uv=False) ** 2
    inv = 1.0 / d[d > d[0] * 1e-15]
    levels = np.linspace(inv.min(), inv.min() + 1.01 * p, n)
    spent = np.maximum(levels[:, None] - inv[None, :], 0.0).sum(axis=1)
    k = int(np.searchsorted(spent, p))
    lo, hi = levels[k - 1], levels[k]
    mu = lo + (hi - lo) * (p - spent[k - 1]) / (spent[k] - spent[k - 1])
    powers = np.maximum(mu - inv, 0.0)
    return float(np.sum(np.log2(1.0 + powers / inv)))


@pytest.mark.parametrize("m", [1, 2, 4, 15])
@pytest.mark.parametrize("seed", [1, 7, 20001])
@pytest.mark.parametrize("p", [0.1, 50.0])
def test_exact_water_level_matches_dense_scan(m, seed, p):
    h = _channels(m, seed).h22
    assert ref.wf_capacity(h, p) == pytest.approx(wf_capacity_scan(h, p), abs=1e-8)


def test_water_level_rank_deficient_channel():
    # one mode only: all power on it, capacity log2(1 + P d)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0] = 2.0
    assert ref.wf_capacity(h, P) == pytest.approx(math.log2(1.0 + 4.0 * P), abs=1e-12)


@pytest.mark.parametrize("strategy", ["meb", "mlb"])
@pytest.mark.parametrize("m,seed", [(2, 3), (4, 1), (4, 20002), (15, 5)])
def test_endpoint_matches_direct_logdet(strategy, m, seed):
    ch = _channels(m, seed)
    rate, e_max = ref.endpoint(ch, strategy, P)
    v = ref.fixed_beam(ch, strategy)
    v12 = np.linalg.svd(ch.h12)[2][0].conj()
    q1 = P * np.outer(v, v.conj())
    q2 = P * np.outer(v12, v12.conj())
    r = np.eye(m) + ch.h21 @ q1 @ ch.h21.conj().T
    s = ch.h22 @ q2 @ ch.h22.conj().T
    direct = (np.linalg.slogdet(r + s)[1] - np.linalg.slogdet(r)[1]) / math.log(2.0)
    assert rate == pytest.approx(direct, abs=1e-9)
    # energy at receiver 1: its own link on beam v plus the cross link on v12
    e_direct = np.trace(ch.h11 @ q1 @ ch.h11.conj().T).real + np.trace(
        ch.h12 @ q2 @ ch.h12.conj().T
    ).real
    assert e_max == pytest.approx(e_direct, rel=1e-12)


def test_fixed_beams_are_what_they_claim():
    ch = _channels(4, 11)
    v_meb = ref.fixed_beam(ch, "meb")
    v_mlb = ref.fixed_beam(ch, "mlb")
    # meb: maximal ||H11 v||, mlb: minimal ||H21 v||, over random unit vectors
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 2000)) + 1j * rng.standard_normal((4, 2000))
    z /= np.linalg.norm(z, axis=0)
    assert np.linalg.norm(ch.h11 @ v_meb) >= np.linalg.norm(ch.h11 @ z, axis=0).max()
    assert np.linalg.norm(ch.h21 @ v_mlb) <= np.linalg.norm(ch.h21 @ z, axis=0).min()


def test_eh_eh_energy_beats_random_beams():
    ch = _channels(2, 4)
    e_ref = ref.eh_eh_energy(ch, P)
    rng = np.random.default_rng(1)
    best = 0.0
    for _ in range(4000):
        v1, v2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        e = P * sum(
            np.linalg.norm(h @ v) ** 2
            for h, v in ((ch.h11, v1), (ch.h21, v1), (ch.h12, v2), (ch.h22, v2))
        )
        best = max(best, e)
    assert best <= e_ref * (1.0 + 1e-12)
    assert best >= e_ref * 0.99


def test_draw_normalization_and_independence():
    alpha = [[1.0, 0.7], [0.7, 1.0]]
    ch = ref.draw_channels(3, 4, alpha, 9)
    for h, a in ((ch.h11, 1.0), (ch.h12, 0.7), (ch.h21, 0.7), (ch.h22, 1.0)):
        assert h.shape == (4, 3)
        assert np.linalg.norm(h) ** 2 == pytest.approx(a * 4, rel=1e-12)
    again = ref.draw_channels(3, 4, alpha, 9)
    other = ref.draw_channels(3, 4, alpha, 10)
    assert np.array_equal(ch.h12, again.h12)
    assert not np.allclose(ch.h12, other.h12)


def test_rate_area_trapezoid():
    rows = [{"e_bar": 0.0, "rate_bits": 4.0}, {"e_bar": 1.0, "rate_bits": 2.0},
            {"e_bar": 3.0, "rate_bits": 0.0}]
    assert ref.rate_area(rows, 2.0) == pytest.approx((3.0 + 2.0) / 2.0)


def test_check_curve_flags_each_fault():
    good = [
        {"e_bar": 0.0, "rate_bits": 5.0, "energy": 1.0, "p1": 0.0},
        {"e_bar": 2.0, "rate_bits": 4.0, "energy": 2.0, "p1": 10.0},
        {"e_bar": 4.0, "rate_bits": 3.0, "energy": 4.0, "p1": P},
    ]
    caps = [5.0, 6.0]  # the first row may equal either; no row may pass 6
    assert ref.check_curve(good, P, caps, True, end=(3.0, 4.0)) == []
    faults = [
        (0, "e_bar", 0.5, "not 0"),
        (1, "e_bar", 0.0, "does not increase"),
        (1, "energy", 1.9, "below target"),
        (1, "p1", P + 1.0, "outside"),
        (1, "rate_bits", 5.5, "increases"),
        (1, "rate_bits", 6.5, "above capacity"),
        (0, "rate_bits", 4.5, "none of capacities"),
        (2, "rate_bits", 2.9, "closed form"),
        (2, "e_bar", 4.1, "e_max"),
    ]
    for k, key, val, words in faults:
        rows = [dict(r) for r in good]
        rows[k][key] = val
        bad = ref.check_curve(rows, P, caps, True, end=(3.0, 4.0))
        assert any(words in msg for msg in bad), (key, val, bad)
    assert ref.check_curve(good[:2] + [dict(good[2], rate_bits=4.5)], P, caps, False) == []
