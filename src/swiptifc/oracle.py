"""Verification routes, and the census loops that hold production to them.

The oracles take deliberately different routes from the constructions
under test:
`generalized_eig_max` whitens by the inverse square root of the whole
denominator (production `sler_beam` and `slnr_beam` diagonalize H21^H H21
once and shift its spectrum by the floor), covariance search samples the
feasible set blindly, the stationarity check probes the objective with
random feasible perturbations, `inner_max` is the closed-form priced
maximizer that the lockstep solver never builds, `lemma1_transform` factors
a link pair that no production route needs, and
`iterative_waterfilling_per_user` plays the water-filling game with two
`waterfill` calls per round (production stacks both transmitters into one
pass).

Each `*_census` function runs production code against these routes over
seeded draws and returns its worst-case figures without judging them.  The
acceptance gate (C1-C5) and `swiptifc oracle-suite` call the same functions:
the gate on its full draws, the command line on fewer.
"""

from dataclasses import dataclass

import numpy as np

from .beamformers import IwfResult, eh_eh_optimal, meb, sler_beam, waterfill
from .boundary import solve_p3
from .channel import draw_channel_set, stacked_channel
from .exceptions import InvalidInputError, SingularMatrixError
from .linalg import as_matrix, hermitian_eig, hermitian_part, inv_sqrt_psd, spectral_norm, svd
from .metrics import TxCovariance, achievable_rate, canonical_beam, interference_cov, sler

__all__ = [
    "random_psd_search",
    "generalized_eig_max",
    "P3Problem",
    "grid_kkt_check",
    "inner_max",
    "Lemma1Result",
    "lemma1_transform",
    "iterative_waterfilling_per_user",
    "harvest_census",
    "waterfill_census",
    "factorization_census",
    "ratio_beam_census",
    "p3_endpoint_census",
    "p3_local_census",
]

_ONES = np.ones((2, 2))


def random_psd_search(objective, m, p, rank, trials, seed, batch=16384):
    """Best objective value over random PSD covariances of a given rank.

    Directions are Haar-random `rank`-frames (orthonormalized complex
    Gaussians, `_orthonormal_frames`) and powers are Dirichlet simplex
    splits scaled to trace exactly P.  The `objective` must be vectorized:
    it receives a stacked (k, m, m) array and returns k real values.
    Returns (best value, best Q).
    """
    if rank < 1 or rank > m:
        raise InvalidInputError(f"rank must lie in [1, {m}], got {rank}")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    best_val = -np.inf
    best_q = None
    left = int(trials)
    while left > 0:
        k = min(left, batch)
        left -= k
        z = rng.standard_normal((k, m, rank, 2))
        frames = _orthonormal_frames(z[..., 0] + 1j * z[..., 1])
        splits = rng.dirichlet(np.ones(rank), size=k) * p
        qs = np.einsum("kmr,kr,knr->kmn", frames, splits, frames.conj())
        vals = np.asarray(objective(qs), dtype=float)
        if vals.shape != (k,):
            raise InvalidInputError(
                f"objective returned shape {vals.shape}, expected ({k},)"
            )
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_q = hermitian_part(qs[i])
    return best_val, best_q


def _orthonormal_frames(z):
    """Orthonormal columns of each frame of a stack (k, m, r), by
    Gram-Schmidt with a second pass ("twice is enough"), vectorized over k.

    Each column equals QR's up to a unit phase, which no covariance
    F diag(s) F^H sees; at rank 1 this is a plain normalization.
    """
    f = z.swapaxes(-1, -2).copy()  # (k, r, m): one frame column per row
    for j in range(f.shape[1]):
        col = f[:, j]
        for _ in range(2 if j else 0):
            for i in range(j):
                col -= np.einsum("km,km->k", f[:, i].conj(), col)[:, None] * f[:, i]
        col /= np.sqrt(np.einsum("km,km->k", col.conj(), col).real)[:, None]
    return f.swapaxes(-1, -2)


def generalized_eig_max(a_num, a_den):
    """Top generalized eigenpair of (A_num, A_den) by explicit whitening.

    Whitens with A_den^{-1/2}, takes the ordinary Hermitian eigendecomposition
    and maps the winner back; A_den must be Hermitian PD.  Returns
    (max Rayleigh quotient, unit maximizer with canonical phase).
    """
    a_num = as_matrix(a_num, "a_num")
    w = inv_sqrt_psd(a_den)
    vals, vecs = hermitian_eig(hermitian_part(w @ a_num @ w))
    vec = w @ vecs[:, 0]
    return float(vals[0]), canonical_beam(vec, 1.0).v


@dataclass(frozen=True)
class P3Problem:
    """Rate maximization for the decoding user under an energy floor.

    maximize  log det(I + H22t Q H22t^H)
    s.t.      tr(H12 Q H12^H) >= e_target,  tr(Q) <= p,  Q PSD
    """

    h22_tilde: np.ndarray
    h12: np.ndarray
    e_target: float
    p: float

    def objective(self, qs):
        """Vectorized log-det objective over stacked covariances (nats)."""
        qs = np.asarray(qs)
        h = self.h22_tilde
        s = np.einsum("ij,kjl,ml->kim", h, qs, h.conj())
        eye = np.eye(h.shape[0])
        _, logdet = np.linalg.slogdet(eye[None] + (s + s.conj().transpose(0, 2, 1)) / 2)
        return logdet

    def energy(self, qs):
        """Vectorized delivered energy tr(H12 Q H12^H)."""
        qs = np.asarray(qs)
        g = self.h12.conj().T @ self.h12
        return np.einsum("ij,kji->k", g, qs).real

    def feasible(self, qs, slack=1e-9):
        qs = np.asarray(qs)
        traces = np.einsum("kii->k", qs).real
        ok_tr = traces <= self.p * (1.0 + slack) + 1e-15
        ok_e = self.energy(qs) >= self.e_target - slack * max(1.0, self.e_target)
        return ok_tr & ok_e


def grid_kkt_check(problem, q_candidate, perturbations=64, step=1e-4, seed=0, margin=1e-7):
    """Local-optimality probe for a P3 candidate.

    Draws random Hermitian perturbations of Frobenius size `step`, projects
    each perturbed matrix back to PSD with trace at most p, discards those
    violating the energy floor, and reports False as soon as one feasible
    neighbor improves the objective by more than `margin`.
    """
    if hasattr(q_candidate, "q"):
        q_candidate = q_candidate.q
    q = as_matrix(q_candidate, "q_candidate")
    m = q.shape[0]
    if not bool(problem.feasible(q[None])[0]):
        return False
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    base = float(problem.objective(q[None])[0])
    z = rng.standard_normal((perturbations, m, m, 2))
    deltas = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    deltas = (deltas + deltas.conj().transpose(0, 2, 1)) / 2.0
    norms = np.linalg.norm(deltas, axis=(1, 2), keepdims=True)
    deltas = deltas * (step / np.maximum(norms, 1e-300))
    cands = q[None] + deltas
    # PSD projection by eigenvalue clipping, then scale into the trace ball
    w, v = np.linalg.eigh((cands + cands.conj().transpose(0, 2, 1)) / 2.0)
    w = np.maximum(w, 0.0)
    cands = np.einsum("kmr,kr,knr->kmn", v, w, v.conj())
    traces = np.einsum("kii->k", cands).real
    scale = np.minimum(1.0, problem.p / np.maximum(traces, 1e-300))
    cands = cands * scale[:, None, None]
    keep = problem.feasible(cands)
    if not np.any(keep):
        return True
    vals = problem.objective(cands[keep])
    return bool(np.max(vals) <= base + margin)


def inner_max(a, h22_tilde):
    """Maximizer of log det(I + Ht Q Ht^H) - tr(A Q) over PSD Q.

    A must be Hermitian PD (SingularMatrixError otherwise); with the SVD
    Ht A^{-1/2} = U Sigma V^H the solution is
    A^{-1/2} V diag((1 - 1/sigma_i^2)^+) V^H A^{-1/2}.
    """
    ai = inv_sqrt_psd(as_matrix(a, "a"))
    ht = as_matrix(h22_tilde, "h22_tilde")
    b = ht @ ai
    _, sig, v = svd(b)
    ptil = np.zeros(b.shape[1])
    ptil[: sig.size] = np.maximum(1.0 - 1.0 / np.maximum(sig**2, 1e-300), 0.0)
    q = ai @ ((v * ptil[None, :]) @ v.conj().T) @ ai
    q = hermitian_part(q)
    return TxCovariance(q, float(np.trace(q).real) + 1e-12)


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
    t = np.linalg.solve(rr, w) / s_b[None, :]
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


def iterative_waterfilling_per_user(cs, p, n_max=20, update="simultaneous"):
    """`iterative_waterfilling` with one `waterfill` call per transmitter and
    round, each against `interference_cov` of the other's covariance.

    Returns the same `IwfResult`, bit for bit.
    """
    if update not in ("simultaneous", "sequential"):
        raise InvalidInputError(f"update must be simultaneous or sequential, got {update!r}")
    if n_max < 1:
        raise InvalidInputError("n_max must be >= 1")
    p = float(p)
    q1 = q2 = (p / cs.m_t) * np.eye(cs.m_t, dtype=np.complex128)
    deltas = []
    converged = False
    it = 0
    for it in range(1, n_max + 1):
        q1_new = waterfill(cs.h11, interference_cov(cs.h12, q2), p).q
        partner = q1_new if update == "sequential" else q1
        q2_new = waterfill(cs.h22, interference_cov(cs.h21, partner), p).q
        delta = max(
            float(np.linalg.norm(q1_new - q1)), float(np.linalg.norm(q2_new - q2))
        )
        deltas.append(delta)
        q1, q2 = q1_new, q2_new
        if delta < 1e-10 * max(p, 1.0):
            converged = True
            break
    rates = (
        achievable_rate(cs.h11, interference_cov(cs.h12, q2), q1),
        achievable_rate(cs.h22, interference_cov(cs.h21, q1), q2),
    )
    return IwfResult(
        q1=TxCovariance(q1, p),
        q2=TxCovariance(q2, p),
        rates=rates,
        deltas=deltas,
        iterations=it,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# censuses: draw k of each uses channel (or generator) seed `seed + k`


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def harvest_census(draws, seed, search_seed, p, trials):
    """`eh_eh_optimal` against random covariance search on m x m unit-gain
    channels, m = 2 + k % 3.  Each transmitter's harvested energy is a trace
    against its stacked-channel Gram, so it is searched alone, `trials // m`
    trials per rank 1..m (seed `search_seed + 8k + 4(tx - 1) + rank`), against
    its P sigma_max^2 share.  Returns (worst relative error of the closed-form
    total, worst relative excess of a search over its share, smallest
    fraction of the total that the searches reach).
    """
    worst_rel, worst_excess, worst_frac = 0.0, -np.inf, np.inf
    for k in range(draws):
        m = 2 + k % 3
        cs = draw_channel_set(m, m, _ONES, seed=seed + k)
        _, _, total = eh_eh_optimal(cs, p)
        closed = searched = 0.0
        for tx in (1, 2):
            hs = stacked_channel(cs, tx)
            bound = p * spectral_norm(hs) ** 2
            closed += bound
            gram = hs.conj().T @ hs

            def energy_of(qs, g=gram):
                return np.einsum("ij,kji->k", g, qs).real

            base = search_seed + 8 * k + 4 * (tx - 1)
            best = max(
                random_psd_search(energy_of, m, p, rank, trials // m, base + rank)[0]
                for rank in range(1, m + 1)
            )
            searched += best
            worst_excess = max(worst_excess, (best - bound) / bound)
        worst_rel = max(worst_rel, abs(total - closed) / closed)
        worst_frac = min(worst_frac, searched / closed)
    return worst_rel, worst_excess, worst_frac


def waterfill_census(draws, seed):
    """`waterfill` on random (H, R = I + A A^H, P) instances, m = 1 + k % 6,
    P log-uniform on [0.05, 20].  Returns (worst water-level spread over the
    active modes in the whitened right-singular basis, worst |tr Q - P| / P,
    worst -lambda_min(Q) / P).
    """
    worst_level = worst_trace = worst_neg = 0.0
    for k in range(draws):
        m = 1 + k % 6
        rng = np.random.default_rng(seed + k)
        h = _cgauss(rng, m, m)
        a = _cgauss(rng, m, m)
        r = np.eye(m) + a @ a.conj().T
        p = float(10 ** rng.uniform(np.log10(0.05), np.log10(20.0)))
        q = waterfill(h, r, p).q
        worst_neg = max(worst_neg, -float(np.linalg.eigvalsh(q)[0]) / p)
        worst_trace = max(worst_trace, abs(float(np.trace(q).real) - p) / p)
        _, sv, v = svd(inv_sqrt_psd(r) @ h)
        powers = np.einsum("ji,jk,ki->i", v.conj(), q, v).real
        active = powers > 1e-6 * p
        if np.any(active):
            levels = powers[active] + 1.0 / sv[active] ** 2
            worst_level = max(worst_level, float(levels.max() - levels.min()))
    return worst_level, worst_trace, worst_neg


def factorization_census(draws, seed):
    """`lemma1_transform` of (H11, H21) on m x m unit-gain channels,
    m = 2 + k % 5.  Returns the worst Frobenius residuals
    (||U_g^H H11 T - Sigma_g||, ||V_g^H H21 T - I||).
    """
    worst_own = worst_cross = 0.0
    for k in range(draws):
        m = 2 + k % 5
        cs = draw_channel_set(m, m, _ONES, seed=seed + k)
        res = lemma1_transform(cs.h11, cs.h21)
        own = res.u_g.conj().T @ cs.h11 @ res.t - np.diag(res.sigma_g)
        cross = res.v_g.conj().T @ cs.h21 @ res.t - np.eye(m)
        worst_own = max(worst_own, float(np.linalg.norm(own)))
        worst_cross = max(worst_cross, float(np.linalg.norm(cross)))
    return worst_own, worst_cross


def ratio_beam_census(draws, seed, p, p1):
    """`sler_beam` at power `p1` against `generalized_eig_max` on m x m
    unit-gain channels, m = 2 + k % 5, at targets {0, P/2, 2P} ||H11||^2.
    Returns (worst relative ratio gap, smallest |<beam, meb>| at the largest
    target, where the beam must align with the maximum-energy direction).
    """
    worst_rel, worst_align = 0.0, 1.0
    for k in range(draws):
        m = 2 + k % 5
        cs = draw_channel_set(m, m, _ONES, seed=seed + k)
        h11, h21 = cs.h11, cs.h21
        sig2 = spectral_norm(h11) ** 2
        g11 = h11.conj().T @ h11
        g21 = h21.conj().T @ h21
        for e_bar in (0.0, 0.5 * p * sig2, 2.0 * p * sig2):
            beam = sler_beam(h11, h21, e_bar, p1)
            achieved = sler(beam, h11, h21, e_bar)
            floor = max(e_bar - p1 * sig2, 0.0)
            target, _ = generalized_eig_max(p1 * g11, p1 * g21 + floor * np.eye(m))
            worst_rel = max(worst_rel, abs(achieved - target) / abs(target))
        worst_align = min(worst_align, abs(np.vdot(beam.v, meb(h11, p1).v)))
    return worst_rel, worst_align


def p3_endpoint_census(draws, seed, p):
    """`solve_p3` on 4 x 4 unit-gain channels at floor 0 (plain water-filling)
    and at the cap P sigma_max^2(H12) (the beam on H12's top right-singular
    vector v).  Returns (worst relative rate gap at 0, worst ||Q - P v v^H||
    and worst relative rate gap at the cap).
    """
    worst_wf = worst_cap_q = worst_cap_rate = 0.0
    eye = np.eye(4)
    for k in range(draws):
        cs = draw_channel_set(4, 4, _ONES, seed=seed + k)
        _, diag0 = solve_p3(cs.h22, cs.h12, 0.0, p)
        ref = achievable_rate(cs.h22, eye, waterfill(cs.h22, eye, p).q)
        worst_wf = max(worst_wf, abs(diag0.rate_bits - ref) / ref)
        qc, diagc = solve_p3(cs.h22, cs.h12, p * spectral_norm(cs.h12) ** 2, p)
        v1 = svd(cs.h12)[2][:, 0]
        dq = float(np.linalg.norm(qc.q - p * np.outer(v1, v1.conj())))
        worst_cap_q = max(worst_cap_q, dq)
        cap_rate = float(np.log2(1.0 + p * np.linalg.norm(cs.h22 @ v1) ** 2))
        worst_cap_rate = max(worst_cap_rate, abs(diagc.rate_bits - cap_rate) / cap_rate)
    return worst_wf, worst_cap_q, worst_cap_rate


def p3_local_census(draws, seed, p):
    """`solve_p3` against `grid_kkt_check` (64 probes of size 1e-4, probe seed
    `seed + k`) on 3 x 3 unit-gain channels at 0.6 of the cap
    P sigma_max^2(H12).  Returns the number of draws where a feasible
    neighbor improves the rate.
    """
    bad = 0
    for k in range(draws):
        cs = draw_channel_set(3, 3, _ONES, seed=seed + k)
        target = 0.6 * p * spectral_norm(cs.h12) ** 2
        q, _ = solve_p3(cs.h22, cs.h12, target, p)
        prob = P3Problem(cs.h22, cs.h12, target, p)
        bad += not grid_kkt_check(prob, q, perturbations=64, step=1e-4, seed=seed + k)
    return bad
