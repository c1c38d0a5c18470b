"""Reference computations and output checks, made apart from swiptifc.

Everything here uses numpy alone.  The channel draw restates the documented
channel model (one PCG64 substream per link, seeded with
SeedSequence(seed, spawn_key=(i, j)), complex Gaussian entries scaled to
||H_ij||_F^2 = alpha_ij * max(m_t, m_r)), so the checks see the same
matrices the program drew without asking the program for them.  The closed
forms are the ones the paper's boundary must reach at its two ends:

* at zero energy target transmitter 1 is silent and transmitter 2
  water-fills H22, so the rate is the interference-free capacity;
* at the right end transmitter 1 runs at full power on its fixed beam and
  transmitter 2 beams all power along the top right singular vector of H12.
"""

import math

import numpy as np

# The curve CSV column contract, as documented for the program's output.
CURVE_COLUMNS = (
    "strategy", "seed", "e_bar", "rate_bits", "energy", "p1",
    "branch", "iterations", "lambda", "mu",
)
MODES_COLUMNS = ("mode", "seed", "m_t", "m_r", "rate_bits", "energy")

# Tolerances.  CSV floats carry 12 significant digits, so 1e-8 bits and a
# relative 1e-8 on energies sit well above print rounding and well below
# any solver change that moves a result.  RATE_MONO is the boundary's own
# stated monotonicity tolerance.
RATE_TOL = 1e-8
REL_TOL = 1e-8
RATE_MONO = 1e-6

_RANK_RATIO = 1e-9


class Channels:
    """The four links of one draw; h[i][j] is the link from tx j to rx i."""

    def __init__(self, h11, h12, h21, h22):
        self.h11, self.h12, self.h21, self.h22 = h11, h12, h21, h22

    def swapped(self):
        """Mirror users 1 and 2, as the scheduled curve's other orientation."""
        return Channels(self.h22, self.h21, self.h12, self.h11)


def draw_channels(m_t, m_r, alpha, seed):
    links = []
    for i in (1, 2):
        for j in (1, 2):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, j)))
            )
            for _ in range(16):
                z = rng.standard_normal((m_r, m_t, 2))
                h = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)
                s = np.linalg.svd(h, compute_uv=False)
                if s[-1] > _RANK_RATIO * s[0]:
                    break
            else:
                raise ValueError(f"link ({i},{j}) of seed {seed} stays rank deficient")
            scale = math.sqrt(alpha[i - 1][j - 1] * max(m_t, m_r)) / np.linalg.norm(h)
            links.append(h * scale)
    return Channels(*links)


def sigma_max2(h):
    return float(np.linalg.svd(h, compute_uv=False)[0] ** 2)


def wf_capacity(h, p):
    """Water-filling capacity of H in bits, with the exact water level.

    Gains d_i (descending) come from the SVD of H.  With k modes active the
    level is (P + sum_{i<k} 1/d_i) / k; the active set is the largest k whose
    level still lies above 1/d_k.
    """
    d = np.linalg.svd(h, compute_uv=False) ** 2
    d = d[d > d[0] * 1e-15]
    inv = 1.0 / d
    k = len(d)
    while k > 1 and (p + inv[:k].sum()) / k <= inv[k - 1]:
        k -= 1
    mu = (p + inv[:k].sum()) / k
    return float(np.sum(np.log2(mu * d[:k])))


def fixed_beam(ch, strategy):
    """Transmitter 1's unit beam for the fixed strategies."""
    if strategy == "meb":
        return np.linalg.svd(ch.h11)[2][0].conj()
    if strategy == "mlb":
        return np.linalg.svd(ch.h21)[2][-1].conj()
    raise ValueError(f"no fixed beam for {strategy!r}")


def endpoint(ch, strategy, p):
    """(rate_bits, e_max) at the right end of a meb/mlb curve.

    Transmitter 2 puts P on the top right singular vector v12 of H12 and
    transmitter 1 puts P on its beam v, so receiver 2 sees the rank-one
    interference a = H21 v.  With g = H22 v12 the rate is
    log2(1 + P g^H (I + P a a^H)^{-1} g), and Sherman-Morrison gives
    g^H (I + P a a^H)^{-1} g = |g|^2 - P |a^H g|^2 / (1 + P |a|^2).
    """
    v = fixed_beam(ch, strategy)
    v12 = np.linalg.svd(ch.h12)[2][0].conj()
    a = ch.h21 @ v
    g = ch.h22 @ v12
    aa = float(np.vdot(a, a).real)
    quad = float(np.vdot(g, g).real) - p * abs(np.vdot(a, g)) ** 2 / (1.0 + p * aa)
    rate = math.log2(1.0 + p * quad)
    e_max = p * (float(np.linalg.norm(ch.h11 @ v) ** 2) + sigma_max2(ch.h12))
    return rate, e_max


def energy_scale(ch, p):
    """Per-channel energy scale P (sigma_max^2(H11) + sigma_max^2(H12))."""
    return p * (sigma_max2(ch.h11) + sigma_max2(ch.h12))


def eh_eh_energy(ch, p):
    """All-harvest optimum: P times the top stacked gain of each transmitter."""
    return p * (sigma_max2(np.vstack((ch.h11, ch.h21))) + sigma_max2(np.vstack((ch.h12, ch.h22))))


def rate_area(rows, scale):
    """Trapezoid integral of rate over e_bar, on an axis divided by `scale`."""
    e = [r["e_bar"] for r in rows]
    rate = [r["rate_bits"] for r in rows]
    area = sum(0.5 * (rate[k] + rate[k + 1]) * (e[k + 1] - e[k]) for k in range(len(e) - 1))
    return area / scale


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages (empty when correct)


def check_curve(rows, p, capacities, monotone, end=None):
    """Properties every emitted tradeoff curve must hold.

    `capacities`: the interference-free capacities the first row may equal
    (one for a fixed orientation, two for a scheduled curve); no row may
    exceed the largest.  `monotone`: rate must not increase along e_bar.
    `end`: (rate, e_max) the last row must reach, for fixed beams.
    """
    bad = []
    if not rows:
        return ["curve has no rows"]
    if rows[0]["e_bar"] != 0.0:
        bad.append(f"first e_bar is {rows[0]['e_bar']!r}, not 0")
    cap = max(capacities)
    for k, r in enumerate(rows):
        if k and r["e_bar"] <= rows[k - 1]["e_bar"]:
            bad.append(f"row {k}: e_bar does not increase")
        if r["energy"] < r["e_bar"] - REL_TOL * max(1.0, r["e_bar"]):
            bad.append(f"row {k}: energy {r['energy']!r} below target {r['e_bar']!r}")
        if not 0.0 <= r["p1"] <= p * (1.0 + 1e-12):
            bad.append(f"row {k}: p1 {r['p1']!r} outside [0, {p}]")
        if r["rate_bits"] > cap + RATE_TOL:
            bad.append(f"row {k}: rate {r['rate_bits']!r} above capacity {cap!r}")
        if monotone and k and r["rate_bits"] > rows[k - 1]["rate_bits"] + RATE_MONO:
            bad.append(f"row {k}: rate increases along the curve")
    if min(abs(rows[0]["rate_bits"] - c) for c in capacities) > RATE_TOL:
        bad.append(f"first rate {rows[0]['rate_bits']!r} is none of capacities {capacities!r}")
    if end is not None:
        rate_end, e_max = end
        last = rows[-1]
        if abs(last["rate_bits"] - rate_end) > RATE_TOL:
            bad.append(f"last rate {last['rate_bits']!r} differs from closed form {rate_end!r}")
        if abs(last["e_bar"] - e_max) > REL_TOL * max(1.0, e_max):
            bad.append(f"last e_bar {last['e_bar']!r} differs from e_max {e_max!r}")
    return bad


def check_modes(rows, ch, p):
    """The two single-mode corners of one channel."""
    by_mode = {r["mode"]: r for r in rows}
    bad = []
    if set(by_mode) != {"id_id", "eh_eh"}:
        return [f"modes rows are {sorted(by_mode)}"]
    e_ref = eh_eh_energy(ch, p)
    if abs(by_mode["eh_eh"]["energy"] - e_ref) > REL_TOL * e_ref:
        bad.append(f"eh_eh energy {by_mode['eh_eh']['energy']!r} differs from {e_ref!r}")
    bound = wf_capacity(ch.h11, p) + wf_capacity(ch.h22, p)
    rate = by_mode["id_id"]["rate_bits"]
    if not 0.0 < rate <= bound + RATE_TOL:
        bad.append(f"id_id sum rate {rate!r} outside (0, {bound!r}]")
    return bad
