"""Release acceptance gate.

Thirteen numbered checks covering the closed forms, the oracles, the
boundary solver, and the end-to-end experiment runner.  Each check prints
one `[acceptance] C<n> <name>: PASS|FAIL` line (also to the unbuffered
stream, so the verdicts survive pytest's capture) and then asserts.

C1-C5 run the census functions of `swiptifc.oracle` (the same ones behind
`swiptifc oracle-suite`) on their full draws and judge the figures here.
The censuses run on fixed seeds and are sized to finish in minutes, not
hours; the shared 100-draw sweep fixture is module-scoped so the boundary
checks pay for it once.
"""



import numpy as np
import pytest

from swiptifc import (
    ExperimentConfig,
    SwiptError,
    draw_channel_set,
    eh_eh_optimal,
    emax,
    iterative_waterfilling,
    preset_variants,
    re_sweep,
    run_experiment,
    scheduled_run,
    time_sharing_curve,
)
from swiptifc.boundary import _solve_many, _StrategyContext
from swiptifc.oracle import (
    factorization_census,
    harvest_census,
    p3_endpoint_census,
    ratio_beam_census,
    waterfill_census,
)

P = 50.0
ONES = [[1.0, 1.0], [1.0, 1.0]]
PROFILE = [[1.0, 0.8], [0.8, 1.0]]
STRATEGIES = ("meb", "mlb", "sler", "slnr")
GRID_N = 64

_trapz = np.trapezoid


def _verdict(capsys, num, name, ok, detail=""):
    line = f"[acceptance] C{num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _full_arrays(bd, n):
    """Expand a swept boundary to length-n grid arrays, NaN at gap indices."""
    gap_idx = {k for k, _, _ in bd.gaps}
    rates = np.full(n, np.nan)
    energies = np.full(n, np.nan)
    ebars = np.full(n, np.nan)
    p1s = np.full(n, np.nan)
    points = iter(bd.points)
    for k in range(n):
        if k in gap_idx:
            continue
        pt = next(points)
        rates[k] = pt.rate_bits
        energies[k] = pt.energy
        ebars[k] = pt.e_bar
        p1s[k] = pt.p1
    return rates, energies, ebars, p1s


@pytest.fixture(scope="module")
def census():
    """100 draws at M=4, direct gain 1.0 / cross gain 0.8, all four strategies."""
    draws = []
    for seed in range(100):
        cs = draw_channel_set(4, 4, PROFILE, seed=seed)
        sweeps = {st: re_sweep(cs, st, P) for st in STRATEGIES}
        draws.append((cs, sweeps))
    return draws


def test_c01_dual_harvest_closed_form_vs_search(capsys):
    """Closed-form dual-harvest energy matches P*(s1^2+s2^2) and caps the search.

    The harvested total is separable per transmitter (a trace against the
    stacked-channel Gram), so each transmitter is searched on its own against
    its P*sigma_max^2 share; 1e5 trials per transmitter split across ranks.
    """
    worst_rel, worst_excess, _ = harvest_census(100, 1000, 7000, P, 100000)
    ok = worst_rel <= 1e-9 and worst_excess <= 1e-9
    _verdict(
        capsys,
        1,
        "dual-harvest closed form vs random search",
        ok,
        f"worst rel err {worst_rel:.2e}, worst search excess {worst_excess:.2e}",
    )


def test_c02_waterfilling_kkt_suite(capsys):
    """1000 random (H, R, P) instances: common level, exact trace, PSD."""
    worst_level, worst_trace, worst_neg = waterfill_census(1000, 11000)
    ok = worst_level <= 1e-8 and worst_trace <= 1e-10 and worst_neg <= 1e-10
    _verdict(
        capsys,
        2,
        "water-filling KKT suite",
        ok,
        f"level spread {worst_level:.2e}, trace err {worst_trace:.2e}P, "
        f"min eig -{worst_neg:.2e}P",
    )


def test_c03_pair_factorization_residuals(capsys):
    """500 channel pairs: the joint factorization reproduces both links."""
    worst_own, worst_cross = factorization_census(500, 2000)
    ok = worst_own < 1e-8 and worst_cross < 1e-8
    _verdict(
        capsys,
        3,
        "pair factorization residuals",
        ok,
        f"own {worst_own:.2e}, cross {worst_cross:.2e}",
    )


def test_c04_leakage_ratio_beam_vs_generalized_eig(capsys):
    """The QR-route beam attains the whitening oracle's ratio at every floor.

    Floors span {0, 25, 100}x the direct link's squared spectral norm (the
    half and double of the 50 W budget); the beam itself carries 0.1 W so the
    largest floor is deep in the energy-dominated regime, where the beam must
    align with the maximum-energy direction.
    """
    worst_rel, worst_align = ratio_beam_census(500, 4000, P, 0.1)
    ok = worst_rel <= 1e-6 and worst_align > 0.999
    _verdict(
        capsys,
        4,
        "leakage-ratio beam vs generalized eig oracle",
        ok,
        f"worst rel err {worst_rel:.2e}, worst energy-regime align {worst_align:.6f}",
    )


def test_c05_energy_constrained_rate_endpoints(capsys):
    """Inactive constraint returns pure water-filling; the cap returns the beam."""
    worst_wf, worst_cap_q, worst_cap_rate = p3_endpoint_census(100, 5000, P)
    ok = worst_wf <= 1e-9 and worst_cap_q < 1e-4 * P and worst_cap_rate <= 1e-6
    _verdict(
        capsys,
        5,
        "energy-constrained solver endpoints",
        ok,
        f"wf rel {worst_wf:.2e}, cap |dQ| {worst_cap_q:.2e} (allow {1e-4 * P:.0e}), "
        f"cap rate rel {worst_cap_rate:.2e}",
    )


def test_c06_boundary_monotone_and_feasible(census, capsys):
    """Every sweep: rate non-increasing in the target, energy meets the target."""
    worst_rise = -np.inf
    worst_short = -np.inf
    total_gaps = 0
    min_published = GRID_N
    for _, sweeps in census:
        for bd in sweeps.values():
            total_gaps += len(bd.gaps)
            min_published = min(min_published, len(bd.points))
            rates = np.array([pt.rate_bits for pt in bd.points])
            if rates.size > 1:
                worst_rise = max(worst_rise, float(np.diff(rates).max()))
            for pt in bd.points:
                worst_short = max(worst_short, pt.e_bar - pt.energy)
    ok = worst_rise <= 1e-6 and worst_short <= 1e-6 and min_published >= 60
    _verdict(
        capsys,
        6,
        "boundary monotonicity and feasibility",
        ok,
        f"worst rate rise {worst_rise:.2e}, worst energy shortfall {worst_short:.2e}, "
        f"gaps {total_gaps}, min points {min_published}/{GRID_N}",
    )


def test_c07_endpoints_flat_segment_timesharing_rank2(census, capsys):
    """Boundary shape: endpoint order, silent segment, chord crossover, rank-2.

    The rank-2 census pits each published rank-one point against 200 random
    genuine two-stream proposals (both streams carrying at least 10% of the
    transmit power) solved by the same power-backoff protocol; each pair's
    200 proposals are solved together in one lockstep, and the pair counts as
    beaten when any of them beats it.
    """
    n = len(census)
    endpoint_ok = all(
        sweeps["meb"].e_max > sweeps["mlb"].e_max for _, sweeps in census
    )

    flat_ok = True
    for _, sweeps in census:
        _, _, _, p1s = _full_arrays(sweeps["meb"], GRID_N)
        if not (p1s[0] <= 1e-12 * P and p1s[1] <= 1e-12 * P):
            flat_ok = False

    crossings = 0
    for cs, sweeps in census:
        ts = time_sharing_curve(sweeps["meb"], weights=[0.0, 1.0])
        (lo, hi) = ts.points[0], ts.points[-1]
        span = hi.energy - lo.energy
        if span <= 0:
            continue
        for pt in sweeps["meb"].points:
            if not (lo.energy < pt.e_bar < hi.energy):
                continue
            tau = (pt.e_bar - lo.energy) / span
            chord = (1.0 - tau) * lo.rate_bits + tau * hi.rate_bits
            if chord > pt.rate_bits + 1e-9:
                crossings += 1
                break

    idxs = np.linspace(4, 60, 8).astype(int)
    pairs = 0
    dominated = 0
    for d, (cs, sweeps) in enumerate(census[:25]):
        rates, _, ebars, _ = _full_arrays(sweeps["meb"], GRID_N)
        for idx in idxs:
            if np.isnan(rates[idx]):
                continue
            pairs += 1
            e_bar = float(ebars[idx])
            rng = np.random.default_rng(6000 + GRID_N * d + int(idx))
            # the pair's 200 splits, one context each, solved in one lockstep
            solved = _solve_many([
                (_StrategyContext(cs, "meb_rank2", P, float(split)), [e_bar])
                for split in rng.uniform(0.1, 0.9, 200)
            ])
            beaten = any(
                not isinstance(pt, SwiptError)
                and pt.energy >= e_bar - 1e-6 * max(1.0, e_bar)
                and pt.rate_bits > rates[idx] + 1e-6
                for pt in solved.values()
            )
            if not beaten:
                dominated += 1
    rank2_ok = pairs > 0 and dominated >= int(np.ceil(0.95 * pairs))

    ok = endpoint_ok and flat_ok and crossings >= int(np.ceil(0.70 * n)) and rank2_ok
    _verdict(
        capsys,
        7,
        "endpoint order, silent segment, time-sharing crossover, rank-2 dominance",
        ok,
        f"endpoints {'all' if endpoint_ok else 'NOT all'} ordered, "
        f"flat segment {'every' if flat_ok else 'NOT every'} draw, "
        f"crossover {crossings}/{n} (need {int(np.ceil(0.70 * n))}), "
        f"rank-2 dominated {dominated}/{pairs} (need {int(np.ceil(0.95 * pairs))})",
    )


def test_c08_low_power_rate_match_with_energy_edge(capsys):
    """At 0.1 W the energy beam should ride within 1% of the leakage beam's rate.

    One-sided comparison on a shared absolute grid over the leakage beam's
    reachable range; the energy endpoint must be strictly larger throughout.
    """
    p = 0.1
    rate_ok = 0
    endpoint_ok = 0
    worst_deficit = 0.0
    n = 100
    for k in range(n):
        cs = draw_channel_set(4, 4, PROFILE, seed=3000 + k)
        em_mlb = emax(cs, "mlb", p)
        grid = np.linspace(0.0, em_mlb, GRID_N)
        r_meb, _, _, _ = _full_arrays(re_sweep(cs, "meb", p, e_grid=grid), GRID_N)
        r_mlb, _, _, _ = _full_arrays(re_sweep(cs, "mlb", p, e_grid=grid), GRID_N)
        if emax(cs, "meb", p) > em_mlb:
            endpoint_ok += 1
        both = ~(np.isnan(r_meb) | np.isnan(r_mlb))
        deficit = np.maximum(r_mlb[both] - r_meb[both], 0.0)
        rel = float(np.max(deficit / r_mlb[both])) if deficit.size else 0.0
        worst_deficit = max(worst_deficit, rel)
        if rel <= 0.01:
            rate_ok += 1
    ok = endpoint_ok == n and rate_ok >= int(np.ceil(0.90 * n))
    _verdict(
        capsys,
        8,
        "low-power rate match with larger energy endpoint",
        ok,
        f"rate within 1% on {rate_ok}/{n} (need {int(np.ceil(0.90 * n))}), "
        f"endpoint larger on {endpoint_ok}/{n}, worst deficit {100 * worst_deficit:.1f}%",
    )


def test_c09_large_array_beam_rate_concentration(capsys):
    """Random-beam rates concentrate as the array grows: CoV < 5% at M=64."""
    p = 10.0
    medians = {}
    for m in (8, 16, 32, 64):
        covs = []
        for k in range(15):
            cs = draw_channel_set(m, m, ONES, seed=9000 + k)
            rng = np.random.default_rng(9500 + k)
            z = _cgauss(rng, m, 200)
            beams = z / np.linalg.norm(z, axis=0, keepdims=True)
            gains = np.linalg.norm(cs.h11 @ beams, axis=0) ** 2
            rates = np.log2(1.0 + p * gains)
            covs.append(float(np.std(rates) / np.mean(rates)))
        medians[m] = float(np.median(covs))
    shrinking = medians[8] > medians[16] > medians[32] > medians[64]
    ok = medians[64] < 0.05 and shrinking
    _verdict(
        capsys,
        9,
        "large-array beam rate concentration",
        ok,
        "median CoV "
        + ", ".join(f"M={m}: {100 * medians[m]:.2f}%" for m in (8, 16, 32, 64)),
    )


def test_c10_antenna_count_orderings(capsys):
    """Paired seeds: four antennas beat two in both harvest energy and sum rate."""
    n = 200
    both_larger = 0
    for seed in range(1, n + 1):
        vals = {}
        for m in (2, 4):
            cs = draw_channel_set(m, m, PROFILE, seed=seed)
            energy = eh_eh_optimal(cs, P)[2]
            game = iterative_waterfilling(cs, P)
            vals[m] = (energy, sum(game.rates))
        if vals[4][0] > vals[2][0] and vals[4][1] > vals[2][1]:
            both_larger += 1
    ok = both_larger >= int(np.ceil(0.90 * n))
    _verdict(
        capsys,
        10,
        "antenna count orderings",
        ok,
        f"both larger on {both_larger}/{n} (need {int(np.ceil(0.90 * n))})",
    )


def test_c11_ratio_beam_area_census(census, capsys):
    """The adaptive-ratio strategy should nearly cover the best rival's area."""
    n = 50
    wins = 0
    margins = []
    for _, sweeps in census[:n]:
        areas = {}
        for st in STRATEGIES:
            rates, energies, _, _ = _full_arrays(sweeps[st], GRID_N)
            good = ~np.isnan(rates)
            areas[st] = float(_trapz(rates[good], energies[good]))
        rival = max(areas["meb"], areas["mlb"], areas["slnr"])
        margins.append(areas["sler"] / rival - 1.0)
        if areas["sler"] >= rival * 0.99:
            wins += 1
    margins = np.array(margins)
    ok = wins >= int(np.ceil(0.80 * n))
    _verdict(
        capsys,
        11,
        "ratio-beam area census",
        ok,
        f"within 1% of best rival on {wins}/{n} (need {int(np.ceil(0.80 * n))}), "
        f"median margin {100 * float(np.median(margins)):.1f}%, "
        f"min {100 * float(margins.min()):.1f}%",
    )


def test_c12_scheduled_vs_fixed_mode_averages(capsys):
    """Averaged scheduled boundary vs each fixed mixed mode, two coupling gains."""
    stats = {}
    for alpha_off in (0.7, 1.0):
        profile = [[1.0, alpha_off], [alpha_off, 1.0]]
        sched, fix1, fix2 = [], [], []
        for seed in range(100):
            cs = draw_channel_set(2, 2, profile, seed=seed)
            own, swapped, bd, _ = scheduled_run(cs, P)
            sched.append(_full_arrays(bd, GRID_N)[0])
            fix1.append(_full_arrays(own, GRID_N)[0])
            fix2.append(_full_arrays(swapped, GRID_N)[0])
        with np.errstate(invalid="ignore"):
            avg_s = np.nanmean(np.array(sched), axis=0)
            avg_1 = np.nanmean(np.array(fix1), axis=0)
            avg_2 = np.nanmean(np.array(fix2), axis=0)
        worst = float(min(np.min(avg_s - avg_1), np.min(avg_s - avg_2)))
        improvement = float(np.nanmean(avg_s - np.maximum(avg_1, avg_2)))
        stats[alpha_off] = (worst, improvement)
    dominance = all(worst >= -1e-9 for worst, _ in stats.values())
    ordering = stats[1.0][1] > stats[0.7][1]
    ok = dominance and ordering
    _verdict(
        capsys,
        12,
        "scheduled vs fixed mixed-mode averages",
        ok,
        f"worst pointwise gap a=0.7: {stats[0.7][0]:.3f}, a=1.0: {stats[1.0][0]:.3f} bits; "
        f"mean improvement a=1.0 {stats[1.0][1]:+.4f} vs a=0.7 {stats[0.7][1]:+.4f}",
    )


def test_c13_repeat_runs_byte_identical(tmp_path, capsys):
    """Two single-worker runs of the same preset emit byte-identical CSVs."""
    outputs = []
    _, overrides = preset_variants("fig2")[0]
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = ExperimentConfig(**{**overrides, "output_dir": str(out)})
        run_experiment(cfg, workers=1)
        outputs.append(out)
    names_a = sorted(p.name for p in outputs[0].glob("*.csv"))
    names_b = sorted(p.name for p in outputs[1].glob("*.csv"))
    identical = bool(names_a) and names_a == names_b
    if identical:
        for name in names_a:
            if (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes():
                identical = False
                break
    _verdict(
        capsys,
        13,
        "repeat runs byte-identical",
        identical,
        f"{len(names_a)} csv files compared",
    )
