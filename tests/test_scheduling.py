"""Tests for receiver-mode evaluation and orientation scheduling."""

import numpy as np
import pytest

from swiptifc import (
    InvalidInputError,
    MODES,
    ModePair,
    draw_channel_set,
    eh_eh_optimal,
    emax,
    iterative_waterfilling,
    re_sweep,
    scheduled_sweep,
    select_mode,
    sler_pair,
    swap_roles,
    evaluate_all_modes,
)

ALPHA = np.array([[1.0, 0.8], [0.8, 1.0]])


class TestModePair:
    def test_tags(self):
        assert set(MODES) == {"id_id", "eh_eh", "eh1_id2", "id1_eh2"}

    def test_decode_pair_cannot_harvest(self):
        with pytest.raises(InvalidInputError):
            ModePair("id_id", 3.0, 1.0)

    def test_harvest_pair_cannot_decode(self):
        with pytest.raises(InvalidInputError):
            ModePair("eh_eh", 0.5, 10.0)

    def test_unknown_tag(self):
        with pytest.raises(InvalidInputError):
            ModePair("eh2_id1", 1.0, 1.0)


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
        s1, s2 = sler_pair(mirrored, 1.0, 2.0)
        assert s1 == pytest.approx(s2, rel=1e-12)
        assert select_mode(mirrored, 1.0, 2.0) == "eh1_id2"
        assert sym.m_t == cs.m_t

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
            for e_bar in (0.0, 1.0, 4.0):
                assert select_mode(cs, e_bar, p) == select_mode(scaled, c**2 * e_bar, p)

    def test_orientation_follows_strong_direct_link(self):
        # boost transmitter 1's direct gain: orientation 1 should win
        alpha = np.array([[4.0, 0.5], [0.5, 1.0]])
        wins = 0
        for seed in range(20):
            cs = draw_channel_set(2, 2, alpha, seed=seed)
            if select_mode(cs, 0.0, 2.0) == "eh1_id2":
                wins += 1
        assert wins >= 16


class TestScheduledSweep:
    def test_tags_and_shape(self):
        cs = draw_channel_set(2, 2, np.array([[1.0, 0.7], [0.7, 1.0]]), seed=3)
        bd, tags = scheduled_sweep(cs, 2.0, n_points=9)
        assert len(bd.points) == 9
        assert len(tags) == 9
        assert set(tags) <= {"eh1_id2", "id1_eh2"}
        assert bd.strategy == "sler_sched"

    def test_grid_spans_larger_orientation(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=4)
        p = 2.0
        em1 = emax(cs, "sler", p)
        em2 = emax(swap_roles(cs), "sler", p)
        bd, _ = scheduled_sweep(cs, p, n_points=5)
        assert bd.e_max == pytest.approx(max(em1, em2), rel=1e-9)
        assert bd.points[-1].e_bar == pytest.approx(max(em1, em2), rel=1e-9)

    def test_energy_feasible_at_every_point(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=6)
        bd, _ = scheduled_sweep(cs, 2.0, n_points=17)
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
        from swiptifc import re_boundary_point

        for e_bar in grid:
            tag = select_mode(cs, float(e_bar), p)
            r1 = re_boundary_point(cs, "sler", float(e_bar), p).rate_bits
            r2 = re_boundary_point(swapped, "sler", float(e_bar), p).rate_bits
            picked = r1 if tag == "eh1_id2" else r2
            assert min(r1, r2) - 1e-9 <= picked <= max(r1, r2) + 1e-9

    def test_matches_per_target_reference(self):
        # the batched sweep lands every target where the per-target rule
        # (select_mode, then re_boundary_point with a fallback) lands it
        from swiptifc import InfeasibleTargetError, re_boundary_point

        p = 5.0
        for a, seed in ((0.7, 1), (1.0, 2), (1.0, 5)):
            cs = draw_channel_set(2, 2, np.array([[1.0, a], [a, 1.0]]), seed=seed)
            swapped = swap_roles(cs)
            em1, em2 = emax(cs, "sler", p), emax(swapped, "sler", p)
            grid = np.linspace(0.0, max(em1, em2), 24)
            want_pts, want_tags, want_gaps = [], [], []
            for k, e_bar in enumerate(grid):
                tag = select_mode(cs, float(e_bar), p)
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
            bd, tags = scheduled_sweep(cs, p, n_points=24)
            assert tags == want_tags
            assert bd.gaps == want_gaps
            assert len(bd.points) == len(want_pts)
            for got, want in zip(bd.points, want_pts):
                assert got.rate_bits == pytest.approx(want.rate_bits, abs=1e-12)
                assert (got.branch, got.iterations, got.p1) == (
                    want.branch, want.iterations, want.p1
                )

    def test_rejects_tiny_grid(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=8)
        with pytest.raises(InvalidInputError):
            scheduled_sweep(cs, 1.0, n_points=1)


class TestEvaluateAllModes:
    def test_table_contents(self):
        cs = draw_channel_set(2, 2, ALPHA, seed=11)
        p = 2.0
        table = evaluate_all_modes(cs, p, n_points=5)
        iwf = iterative_waterfilling(cs, p)
        assert table.id_id.rate_bits == pytest.approx(sum(iwf.rates), rel=1e-12)
        assert table.id_id.energy == 0.0
        _, _, e_total = eh_eh_optimal(cs, p)
        assert table.eh_eh.energy == pytest.approx(e_total, rel=1e-12)
        assert table.eh_eh.rate_bits == 0.0
        assert len(table.eh1_id2.points) == 5
        assert len(table.id1_eh2.points) == 5
        # the mirrored sweep really is the swapped problem
        want = re_sweep(swap_roles(cs), "sler", p, n_points=5)
        got = table.id1_eh2
        for a, b in zip(want.points, got.points):
            assert a.rate_bits == pytest.approx(b.rate_bits, rel=1e-12)
            assert a.energy == pytest.approx(b.energy, rel=1e-12)
