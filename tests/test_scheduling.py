"""Tests for the SLER mode rule and orientation scheduling."""

import math

import numpy as np
import pytest

from swiptifc import beamformers, boundary
from swiptifc import (
    ChannelSet,
    ExperimentConfig,
    InfeasibleTargetError,
    InvalidInputError,
    MODES,
    SingularMatrixError,
    draw_channel_set,
    eh_eh_optimal,
    emax,
    emit_plot_data,
    iterative_waterfilling,
    re_boundary_point,
    re_sweep,
    read_plot_data,
    run_experiment,
    scheduled_run,
    sler,
    sler_beam,
    swap_roles,
)
from swiptifc import scheduling
from swiptifc.scheduling import select_modes

ALPHA = np.array([[1.0, 0.8], [0.8, 1.0]])


def _ratio_pair(cs, e_bar, p):
    # the two orientations' ratios at one target, as floats
    links = [boundary._ratio_consts(cs.h11, cs.h21), boundary._ratio_consts(cs.h22, cs.h12)]
    s1, s2 = scheduling._orientation_ratios(links, p, [e_bar])
    return float(s1[0]), float(s2[0])


def _looped_pair(cs, e_bar, p):
    # each orientation's SLER beam rated one target at a time by the public sler
    v1 = sler_beam(cs.h11, cs.h21, e_bar, p)
    v2 = sler_beam(cs.h22, cs.h12, e_bar, p)
    return sler(v1, cs.h11, cs.h21, e_bar), sler(v2, cs.h22, cs.h12, e_bar)


def _looped_mode(cs, e_bar, p):
    s1, s2 = _looped_pair(cs, e_bar, p)
    if s1 >= s2:
        return "eh1_id2"
    if math.isfinite(s1) and math.isfinite(s2):
        if s2 - s1 <= 1e-12 * max(abs(s1), abs(s2), 1.0):
            return "eh1_id2"
    return "id1_eh2"


def _per_target_reference(cs, p, n):
    """The scheduled curve target by target: the `select_modes` pick, then
    `re_boundary_point` in the picked orientation, falling back to the other
    one where the pick cannot reach the target.  Returns (points, tags,
    gaps) on the grid over [0, max e_max]."""
    swapped = swap_roles(cs)
    em1, em2 = emax(cs, "sler", p), emax(swapped, "sler", p)
    grid = np.linspace(0.0, max(em1, em2), n)
    want_pts, want_tags, want_gaps = [], [], []
    for k, (e_bar, tag) in enumerate(zip(grid, select_modes(cs, grid, p))):
        if tag == "eh1_id2" and e_bar > em1 * (1 + 1e-9):
            tag = "id1_eh2"
        elif tag == "id1_eh2" and e_bar > em2 * (1 + 1e-9):
            tag = "eh1_id2"
        other = "id1_eh2" if tag == "eh1_id2" else "eh1_id2"
        pt, err = None, None
        for t in (tag, other):
            side, top = (cs, em1) if t == "eh1_id2" else (swapped, em2)
            if e_bar > top * (1 + 1e-9):
                continue
            try:
                pt = re_boundary_point(side, "sler", float(e_bar), p)
            except InfeasibleTargetError as exc:
                err = exc
                continue
            tag = t
            break
        if pt is None:
            want_gaps.append((k, float(e_bar), str(err)))
            continue
        want_pts.append(pt)
        want_tags.append(tag)
    return want_pts, want_tags, want_gaps


def _floor_grid(cs, p, n=17):
    """Targets from 0 past both P ||H_ii||_2^2, where the SLER floors turn on."""
    top = p * max(np.linalg.norm(cs.h11, 2), np.linalg.norm(cs.h22, 2)) ** 2
    return np.linspace(0.0, 2.5 * top, n)


def _run_modes(tmp_path, m_t, m_r, seed, p, n):
    """The runner's table of all four mode pairs on one channel: the
    modes.csv rows by tag as (rate_bits, energy) strings, and the output
    directory, which also holds the two mixed orientations' sler sweeps."""
    out = tmp_path / "out"
    run_experiment(ExperimentConfig(
        m_t, m_r, ALPHA, p=p, strategies=("sler",), e_grid_points=n, seeds=(seed,),
        modes=("id_id", "eh_eh"), scheduling=True, output_dir=str(out),
    ))
    lines = (out / "modes.csv").read_text().splitlines()
    assert lines[0] == "mode,seed,m_t,m_r,rate_bits,energy"
    rows = [line.split(",") for line in lines[1:]]
    return {tag: (rate, energy) for tag, _, _, _, rate, energy in rows}, out


class TestModePair:
    """Each receiver-mode pair's corner as the runner writes it (modes.csv):
    both-decode harvests nothing, both-harvest decodes nothing, and only the
    tags of `MODES` exist."""

    def test_tags(self):
        assert set(MODES) == {"id_id", "eh_eh", "eh1_id2", "id1_eh2"}

    def test_decode_pair_cannot_harvest(self, tmp_path):
        rows, _ = _run_modes(tmp_path, 2, 2, 11, 2.0, 3)
        rate, energy = rows["id_id"]
        assert energy == "0" and float(rate) > 0.0

    def test_harvest_pair_cannot_decode(self, tmp_path):
        rows, _ = _run_modes(tmp_path, 2, 2, 11, 2.0, 3)
        rate, energy = rows["eh_eh"]
        assert rate == "0" and float(energy) > 0.0

    def test_unknown_tag(self):
        with pytest.raises(InvalidInputError, match="unknown mode"):
            ExperimentConfig(2, 2, ALPHA, modes=("eh2_id1",))


class TestSelectMode:
    def test_symmetric_channels_tie_to_first(self):
        # mirrored links make both orientations identical
        cs = draw_channel_set(2, 2, ALPHA, seed=5)
        sym = swap_roles(swap_roles(cs))
        from swiptifc import ChannelSet

        mirrored = ChannelSet(
            h11=cs.h11.copy(),
            h12=cs.h21.copy(),
            h21=cs.h21.copy(),
            h22=cs.h11.copy(),
            alpha=np.array(
                [
                    [cs.alpha[0, 0], cs.alpha[1, 0]],
                    [cs.alpha[1, 0], cs.alpha[0, 0]],
                ]
            ),
            m_t=2,
            m_r=2,
        )
        s1, s2 = _ratio_pair(mirrored, 1.0, 2.0)
        assert s1 == pytest.approx(s2, rel=1e-12)
        assert select_modes(mirrored, [1.0], 2.0) == ["eh1_id2"]
        assert sym.m_t == cs.m_t
        grid = _floor_grid(mirrored, 2.0)
        assert select_modes(mirrored, grid, 2.0) == ["eh1_id2"] * grid.size

    def test_selection_scale_invariant(self):
        c = 0.5
        p = 4.0
        for seed in range(10):
            cs = draw_channel_set(2, 2, ALPHA, seed=seed)
            from swiptifc import ChannelSet

            scaled = ChannelSet(
                h11=c * cs.h11,
                h12=c * cs.h12,
                h21=c * cs.h21,
                h22=c * cs.h22,
                alpha=c**2 * cs.alpha,
                m_t=2,
                m_r=2,
            )
            grid = np.array([0.0, 1.0, 4.0])
            assert select_modes(cs, grid, p) == select_modes(scaled, c**2 * grid, p)

    def test_orientation_follows_strong_direct_link(self):
        # boost transmitter 1's direct gain: orientation 1 should win
        alpha = np.array([[4.0, 0.5], [0.5, 1.0]])
        wins = 0
        for seed in range(20):
            cs = draw_channel_set(2, 2, alpha, seed=seed)
            if select_modes(cs, [0.0], 2.0) == ["eh1_id2"]:
                wins += 1
        assert wins >= 16

    def test_tags_pinned(self):
        # the tags of the grids above, pinned: one digit per target (1 for
        # eh1_id2, 2 for id1_eh2)
        def digits(tags):
            return "".join("1" if t == "eh1_id2" else "2" for t in tags)

        grid = [0.0, 1.0, 4.0]
        got = "".join(
            digits(select_modes(draw_channel_set(2, 2, ALPHA, seed=seed), grid, 4.0))
            for seed in range(10)
        )
        assert got == "111222111222111222222111111222"
        alpha = np.array([[4.0, 0.5], [0.5, 1.0]])
        got = "".join(
            digits(select_modes(draw_channel_set(2, 2, alpha, seed=seed), [0.0], 2.0))
            for seed in range(20)
        )
        assert got == "11111111111121121111"

    def test_reads_only_the_ratio_factorizations(self, monkeypatch):
        # select_modes builds no strategy context: no cross-link factor and
        # no energy beam; its tags are those the contexts' entries give
        calls = []

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("_cross_factor", "meb"):
            monkeypatch.setattr(boundary, name, counted(name, getattr(boundary, name)))
        grid = np.linspace(0.0, 6.0, 64)
        for seed in range(4):
            cs = draw_channel_set(2, 2, ALPHA, seed=seed)
            calls.clear()
            got = select_modes(cs, grid, 4.0)
            assert calls == []
            ctxs = [boundary._StrategyContext(c, "sler", 4.0) for c in (cs, swap_roles(cs))]
            assert got == scheduling._select([c.consts for c in ctxs], 4.0, grid)


class TestSelectModes:
    """select_modes rates a whole grid at once; every element must equal the
    rule at its one target, and the ratios `sler` of each one-target beam,
    bit for bit."""

    @pytest.mark.parametrize("m_t,m_r", [(2, 2), (3, 2), (2, 3), (4, 4)])
    def test_matches_per_target(self, m_t, m_r):
        p = 2.0
        ratios = []
        for seed in range(6):
            for a in (0.7, 1.0):
                cs = draw_channel_set(m_t, m_r, np.array([[1.0, a], [a, 1.0]]), seed=seed)
                grid = _floor_grid(cs, p)
                got = select_modes(cs, grid, p)
                assert got == [select_modes(cs, [float(e)], p)[0] for e in grid]
                assert got == [_looped_mode(cs, float(e), p) for e in grid]
                for e in grid:
                    pair = _ratio_pair(cs, float(e), p)
                    assert pair == _looped_pair(cs, float(e), p)
                    ratios.extend(pair)
        ratios = np.array(ratios)
        if m_t > m_r:
            # a wide cross link has a null direction: at a zero floor the
            # denominator vanishes and the ratio is infinite
            assert np.isinf(ratios).any() and np.isfinite(ratios).any()
        else:
            assert np.isfinite(ratios).all()

    def test_zero_floor_and_floors_above_own_gain(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=9)
        p = 3.0
        own = p * np.linalg.norm(cs.h11, 2) ** 2
        grid = [0.0, 0.5 * own, own, 1.5 * own, 4.0 * own]
        assert select_modes(cs, grid, p) == [_looped_mode(cs, e, p) for e in grid]
        assert select_modes(cs, [], p) == []

    def test_infinite_ratio_on_either_side(self):
        # 3 transmit, 2 receive antennas: each orientation's ratio is infinite
        # while its floor is zero, so between the two P ||H_ii||_2^2 one side
        # is infinite and the other finite
        p = 2.0
        seen = set()
        for seed in range(20):
            cs = draw_channel_set(3, 2, ALPHA, seed=seed)
            g1, g2 = (p * np.linalg.norm(h, 2) ** 2 for h in (cs.h11, cs.h22))
            e = 0.5 * (g1 + g2)
            s1, s2 = _ratio_pair(cs, e, p)
            want = "eh1_id2" if math.isinf(s1) else "id1_eh2"
            assert math.isinf(s1) != math.isinf(s2)
            assert select_modes(cs, [0.0, e], p) == ["eh1_id2", want]
            seen.add(want)
        assert seen == {"eh1_id2", "id1_eh2"}

    def test_rounding_tie_goes_to_first(self):
        # orientation 2 is orientation 1 with rotated phases: equal ratios in
        # exact arithmetic, so a second ratio above the first by rounding is
        # a tie and goes to the first orientation
        cs = draw_channel_set(2, 2, ALPHA, seed=5)
        alpha = np.array([[cs.alpha[0, 0], cs.alpha[1, 0]], [cs.alpha[1, 0], cs.alpha[0, 0]]])
        ties = 0
        for k in range(1, 12):
            ph = np.exp(0.1j * k)
            rotated = ChannelSet(
                h11=cs.h11.copy(), h12=ph * cs.h21, h21=cs.h21.copy(), h22=ph * cs.h11,
                alpha=alpha, m_t=2, m_r=2,
            )
            grid = [0.0, 1.0, 3.0]
            for e, tag in zip(grid, select_modes(rotated, grid, 2.0)):
                s1, s2 = _ratio_pair(rotated, e, 2.0)
                assert tag == "eh1_id2" == _looped_mode(rotated, e, 2.0)
                ties += s2 > s1
        assert ties

    def test_rejects_bad_targets_and_power(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=1)
        with pytest.raises(InvalidInputError):
            select_modes(cs, [0.0, -1.0], 2.0)
        with pytest.raises(InvalidInputError):
            select_modes(cs, [np.nan], 2.0)
        with pytest.raises(InvalidInputError):
            select_modes(cs, [1.0], 0.0)
        # a 2-D target array is rejected, not flattened; a scalar is one target
        with pytest.raises(InvalidInputError, match="1-D"):
            select_modes(cs, [[1.0, 2.0]], 2.0)
        assert select_modes(cs, 1.0, 2.0) == select_modes(cs, [1.0], 2.0)


class TestScheduledSweep:
    """The scheduled curve of `scheduled_run` and its tags."""

    def test_tags_and_shape(self):
        cs = draw_channel_set(2, 2, np.array([[1.0, 0.7], [0.7, 1.0]]), seed=3)
        *_, bd, tags = scheduled_run(cs, 2.0, n_points=9)
        assert len(bd.points) == 9
        assert len(tags) == 9
        assert set(tags) <= {"eh1_id2", "id1_eh2"}
        assert bd.strategy == "sler_sched"

    def test_grid_spans_larger_orientation(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=4)
        p = 2.0
        em1 = emax(cs, "sler", p)
        em2 = emax(swap_roles(cs), "sler", p)
        bd = scheduled_run(cs, p, n_points=5)[2]
        assert bd.e_max == pytest.approx(max(em1, em2), rel=1e-9)
        assert bd.points[-1].e_bar == pytest.approx(max(em1, em2), rel=1e-9)

    def test_energy_feasible_at_every_point(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=6)
        bd = scheduled_run(cs, 2.0, n_points=17)[2]
        for pt in bd.points:
            assert pt.energy >= pt.e_bar - 1e-6 * max(1.0, pt.e_bar)

    def test_point_comes_from_one_orientation(self):
        # each scheduled point is exactly the picked orientation's operating
        # point, so its rate lies between the two raw per-target solves
        cs = draw_channel_set(2, 2, ALPHA, seed=7)
        p = 2.0
        swapped = swap_roles(cs)
        grid = np.linspace(
            0.0, min(emax(cs, "sler", p), emax(swapped, "sler", p)), 7
        )
        for e_bar, tag in zip(grid, select_modes(cs, grid, p)):
            r1 = re_boundary_point(cs, "sler", float(e_bar), p).rate_bits
            r2 = re_boundary_point(swapped, "sler", float(e_bar), p).rate_bits
            picked = r1 if tag == "eh1_id2" else r2
            assert min(r1, r2) - 1e-9 <= picked <= max(r1, r2) + 1e-9

    def test_matches_per_target_reference(self):
        # the batched sweep lands every target where the per-target rule
        # (the select_modes pick, then re_boundary_point with a fallback)
        # lands it
        p = 5.0
        for a, seed in ((0.7, 1), (1.0, 2), (1.0, 5)):
            cs = draw_channel_set(2, 2, np.array([[1.0, a], [a, 1.0]]), seed=seed)
            want_pts, want_tags, want_gaps = _per_target_reference(cs, p, 24)
            *_, bd, tags = scheduled_run(cs, p, n_points=24)
            assert tags == want_tags
            assert bd.gaps == want_gaps
            assert len(bd.points) == len(want_pts)
            for got, want in zip(bd.points, want_pts):
                assert got.rate_bits == pytest.approx(want.rate_bits, abs=1e-12)
                assert (got.branch, got.iterations, got.p1) == (
                    want.branch, want.iterations, want.p1
                )


class TestScheduledRun:
    """scheduled_run solves both orientations' sweeps and the scheduled sweep
    in one lockstep: each fixed curve must equal its own `re_sweep`, and the
    scheduled curve the per-target reference."""

    @staticmethod
    def _check(cs, p, n):
        *got, sched, tags = scheduled_run(cs, p, n_points=n)
        cold = (re_sweep(cs, "sler", p, n_points=n), re_sweep(swap_roles(cs), "sler", p, n_points=n))
        for g, w in zip(got, cold):
            assert g.points == w.points
            assert g.gaps == w.gaps
            assert (g.e_max, g.strategy, g.seed) == (w.e_max, w.strategy, w.seed)
            assert g.channel_digest == w.channel_digest
        want_pts, want_tags, want_gaps = _per_target_reference(cs, p, n)
        assert sched.points == want_pts
        assert (sched.gaps, tags) == (want_gaps, want_tags)
        assert (sched.strategy, sched.seed) == ("sler_sched", cs.seed)
        assert sched.e_max == max(w.e_max for w in cold)
        assert sched.channel_digest == cold[0].channel_digest
        return sched, tags

    @pytest.mark.parametrize("m_t,m_r", [(2, 2), (3, 2), (2, 3), (4, 4)])
    def test_matches_cold_calls(self, m_t, m_r):
        for a, seed in ((0.7, 1), (1.0, 2)):
            cs = draw_channel_set(m_t, m_r, np.array([[1.0, a], [a, 1.0]]), seed=seed)
            self._check(cs, 50.0, 20)

    @staticmethod
    def _forced(monkeypatch, refusals):
        """A 16-point 2x2 channel on which every lockstep, scheduled_run's and
        the per-target reference's alike, answers one interior target that
        both orientations reach with an error: the first refusal for the
        picked orientation, the second for the other one (None solves it).
        Returns (cs, p, n, k, orders), orders[k] the target's two tags."""
        p = 50.0
        n = 16
        cs = draw_channel_set(2, 2, np.array([[1.0, 0.7], [0.7, 1.0]]), seed=3)
        tops = {"eh1_id2": emax(cs, "sler", p), "id1_eh2": emax(swap_roles(cs), "sler", p)}
        grid = np.linspace(0.0, max(tops.values()), n)
        orders = []
        for e_bar, tag in zip(grid, select_modes(cs, grid, p)):
            other = "id1_eh2" if tag == "eh1_id2" else "eh1_id2"
            orders.append([t for t in (tag, other) if e_bar <= tops[t] * (1 + 1e-9)])
        k = next(k for k in range(1, n) if len(orders[k]) == 2)
        sides = {"eh1_id2": cs.h11.copy(), "id1_eh2": swap_roles(cs).h11.copy()}
        answers = [(sides[t], err) for t, err in zip(orders[k], refusals) if err is not None]
        real = boundary._solve_many

        def solve_many(jobs):
            solved, lockstep = real(jobs)
            for ctx, e_bar in solved:
                for h11, err in answers:
                    if e_bar == float(grid[k]) and np.array_equal(ctx.cs.h11, h11):
                        solved[ctx, e_bar] = err
            return solved, lockstep

        monkeypatch.setattr(boundary, "_solve_many", solve_many)
        monkeypatch.setattr(scheduling, "_solve_many", solve_many)
        return cs, p, n, k, orders

    def test_forced_fallback(self, monkeypatch):
        # the first choice of one interior target cannot reach it, so the
        # other orientation serves it in the second lockstep
        refused = InfeasibleTargetError("forced shortfall", max_attainable=0.0)
        cs, p, n, k, orders = self._forced(monkeypatch, [refused, None])
        sched, tags = self._check(cs, p, n)
        assert not sched.gaps
        assert tags[k] == orders[k][1]
        assert [t for i, t in enumerate(tags) if i != k] == [
            order[0] for i, order in enumerate(orders) if i != k
        ]

    def test_forced_gap(self, monkeypatch):
        # both orientations refuse one target: it becomes a gap carrying the
        # last refusal's text, and every other target keeps its pick
        refusals = [
            InfeasibleTargetError("first refusal", max_attainable=0.0),
            InfeasibleTargetError("last refusal", max_attainable=0.0),
        ]
        cs, p, n, k, orders = self._forced(monkeypatch, refusals)
        sched, tags = self._check(cs, p, n)
        assert [(i, msg) for i, _, msg in sched.gaps] == [(k, "last refusal")]
        assert len(sched.points) == len(tags) == n - 1
        assert tags == [order[0] for i, order in enumerate(orders) if i != k]

    def test_solver_error_at_a_pick_propagates(self, monkeypatch):
        # only a shortfall hands the target to the other orientation; any
        # other solver error at a picked target stops the run
        broken = SingularMatrixError("forced singular factor")
        cs, p, n, _, _ = self._forced(monkeypatch, [broken, None])
        with pytest.raises(SingularMatrixError, match="forced singular factor"):
            scheduled_run(cs, p, n_points=n)

    def test_one_factorization_per_orientation(self, monkeypatch):
        # the rule reads the SLER contexts' factorization of each cross link:
        # one `_ratio_factor` per orientation, wherever it is looked up
        calls = []
        real = beamformers._ratio_factor

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (boundary, scheduling):
            if getattr(module, "_ratio_factor", None) is real:
                monkeypatch.setattr(module, "_ratio_factor", counted)
        cs = draw_channel_set(2, 2, np.array([[1.0, 0.7], [0.7, 1.0]]), seed=3)
        scheduled_run(cs, 50.0, n_points=16)
        assert len(calls) == 2

    def test_rejects_tiny_grid(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=8)
        with pytest.raises(InvalidInputError):
            scheduled_run(cs, 1.0, n_points=1)


class TestBenchmarkHooks:
    """`scheduling.select_mode` and `scheduling.scheduled_sweep` are not in
    the API; the benchmark's traced run wraps them by name.  Each must stay
    the API call it stands for."""

    @pytest.mark.parametrize("m_t,m_r", [(2, 2), (3, 2)])
    def test_select_mode_is_select_modes_at_one_target(self, m_t, m_r):
        p = 2.0
        for seed in range(4):
            for a in (0.7, 1.0):
                cs = draw_channel_set(m_t, m_r, np.array([[1.0, a], [a, 1.0]]), seed=seed)
                for e in _floor_grid(cs, p).tolist():
                    assert scheduling.select_mode(cs, e, p) == select_modes(cs, [e], p)[0]

    def test_scheduled_sweep_is_scheduled_runs_curve(self):
        for a, seed in ((0.7, 1), (1.0, 2), (1.0, 5)):
            cs = draw_channel_set(2, 2, np.array([[1.0, a], [a, 1.0]]), seed=seed)
            bd, tags = scheduling.scheduled_sweep(cs, 5.0, n_points=24)
            want, want_tags = scheduled_run(cs, 5.0, n_points=24)[2:]
            assert bd.points == want.points
            assert tags == want_tags
            assert (bd.gaps, bd.e_max, bd.strategy, bd.seed, bd.channel_digest) == (
                want.gaps, want.e_max, want.strategy, want.seed, want.channel_digest
            )


class TestEvaluateAllModes:
    """The runner is the one path that evaluates all four mode pairs: the
    two corners in modes.csv, the two mixed orientations as the sler and
    sler_swap sweeps of `scheduled_run`."""

    def test_table_contents(self, tmp_path):
        p = 2.0
        rows, out = _run_modes(tmp_path, 2, 2, 11, p, 5)
        cs = draw_channel_set(2, 2, ALPHA, seed=11)
        _, _, e_total = eh_eh_optimal(cs, p)
        assert float(rows["id_id"][0]) == pytest.approx(
            sum(iterative_waterfilling(cs, p).rates), rel=1e-11
        )
        assert float(rows["eh_eh"][1]) == pytest.approx(e_total, rel=1e-11)
        for label in ("sler", "sler_swap"):
            assert len(read_plot_data(out / f"curve_{label}_seed11.csv")) == 5

    def test_orientations_match_cold_sweeps(self, tmp_path):
        # each mixed orientation's curve is its own re_sweep's, byte for byte
        _, out = _run_modes(tmp_path, 3, 2, 12, 5.0, 9)
        cs = draw_channel_set(3, 2, ALPHA, seed=12)
        for label, side in (("sler", cs), ("sler_swap", swap_roles(cs))):
            want = emit_plot_data(re_sweep(side, "sler", 5.0, n_points=9), tmp_path / "w.csv", label)
            assert (out / f"curve_{label}_seed12.csv").read_bytes() == want.read_bytes()


class TestPointCount:
    """Every entry point that builds an energy grid takes its size from one
    check: an integer (numpy's too, not a bool) of at least 2, checked
    before any e_max search or lockstep."""

    # each call returns the boundary built on its grid
    CALLS = {
        "re_sweep": lambda cs, n: re_sweep(cs, "meb", 2.0, n_points=n),
        "scheduled_sweep": lambda cs, n: scheduling.scheduled_sweep(cs, 2.0, n_points=n)[0],
        "scheduled_run": lambda cs, n: scheduled_run(cs, 2.0, n_points=n)[2],
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("n_points", [2.5, 3.0, "8", True, 1])
    def test_rejects_before_solving(self, call, n_points, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad point count reached the solver")

        for module, name in (
            (boundary, "_emax_many"),
            (boundary, "_solve_many"),
            (scheduling, "_emax_many"),
            (scheduling, "_solve_many"),
        ):
            monkeypatch.setattr(module, name, refuse)
        cs = draw_channel_set(2, 2, ALPHA, seed=8)
        with pytest.raises(InvalidInputError, match="n_points"):
            self.CALLS[call](cs, n_points)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_accepts_numpy_integer(self, call):
        bd = self.CALLS[call](draw_channel_set(2, 2, ALPHA, seed=8), np.int64(3))
        assert len(bd.points) + len(bd.gaps) == 3
