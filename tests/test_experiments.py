"""Tests for experiment configs, presets, CSV artifacts and the runner."""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swiptifc
from swiptifc import boundary, experiments
from swiptifc import (
    CSV_COLUMNS,
    ExperimentConfig,
    InvalidInputError,
    PRESETS,
    REBoundary,
    REPoint,
    apply_overrides,
    draw_channel_set,
    emit_plot_data,
    iterative_waterfilling,
    preset_variants,
    re_sweep,
    read_plot_data,
    run_experiment,
    time_sharing_curve,
)


def _tiny_cfg(tmp_path, **kw):
    base = dict(
        m_t=2,
        m_r=2,
        alpha=((1.0, 0.8), (0.8, 1.0)),
        p=2.0,
        strategies=("meb",),
        e_grid_points=4,
        seeds=(1,),
        output_dir=str(tmp_path / "out"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_roundtrip(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, strategies=("meb", "mlb"), seeds=(1, 2, 3))
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()

    def test_rejects_unknown_strategy(self, tmp_path):
        with pytest.raises(InvalidInputError):
            _tiny_cfg(tmp_path, strategies=("mrt",))

    def test_rejects_bad_grid(self, tmp_path):
        with pytest.raises(InvalidInputError):
            _tiny_cfg(tmp_path, e_grid_points=1)

    def test_rejects_bad_power(self, tmp_path):
        with pytest.raises(InvalidInputError):
            _tiny_cfg(tmp_path, p=-1.0)

    def test_rejects_unknown_keys(self, tmp_path):
        d = _tiny_cfg(tmp_path).to_dict()
        d["snr"] = 10.0
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_dict(d)

    def test_rejects_empty_seeds(self, tmp_path):
        with pytest.raises(InvalidInputError):
            _tiny_cfg(tmp_path, seeds=())

    @pytest.mark.parametrize(
        "field",
        [
            {"seeds": [1.7, True]},
            {"seeds": [1, 1]},
            {"seeds": ["a"]},
            {"seeds": 3},
            {"seeds": [1, -1]},
            {"m_t": 2.5},
            {"m_r": True},
            {"e_grid_points": 2.5},
            {"ts_points": 3.0},
            {"p": "x"},
            {"p": True},
            {"alpha": "x"},
            {"strategies": 3},
            {"modes": 3},
            {"modes": ["eh1_id2"]},
            {"modes": ["id_id", "id1_eh2"]},
            {"strategies": ["sler", "sler"]},
            {"strategies": ["meb", "mlb", "meb"]},
            {"modes": ["id_id", "id_id"]},
            {"scheduling": "no"},
            {"time_sharing": 1},
            {"figure_preset": 2},
            {"output_dir": b"out"},
            {"output_dir": ["out"]},
            {"m_t": 0},
            {"m_r": -1},
            {"alpha": ((1.0, 0.8),)},
            {"alpha": ((1.0, 0.8, 0.1), (0.8, 1.0, 0.1))},
            {"alpha": ((1.0, 0.0), (0.8, 1.0))},
            {"alpha": ((1.0, 0.8), (np.inf, 1.0))},
            {"ts_points": 1},
        ],
    )
    def test_rejects_mistyped_fields(self, tmp_path, field):
        with pytest.raises(InvalidInputError):
            _tiny_cfg(tmp_path, **field)

    def test_numpy_integers_become_ints(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, m_t=np.int64(2), seeds=np.arange(1, 3))
        assert cfg.m_t == 2 and cfg.seeds == (1, 2)
        assert all(type(v) is int for v in (cfg.m_t, *cfg.seeds))
        json.dumps(cfg.to_dict())

    @pytest.mark.parametrize("p", [np.float32(2.0), np.int64(2), 2])
    def test_numpy_power_and_path_dir_run_to_a_readable_summary(self, tmp_path, p):
        # every field is stored as a value JSON can write, so the summary,
        # written after all the work, is complete
        cfg = _tiny_cfg(tmp_path, p=p, output_dir=tmp_path / "out", time_sharing=np.bool_(True))
        manifest = run_experiment(cfg)
        assert type(cfg.p) is float and type(cfg.output_dir) is str
        assert cfg.time_sharing is True
        with open(tmp_path / "out" / "summary.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["config"]["p"] == 2.0
        assert on_disk["config"]["output_dir"] == str(tmp_path / "out")
        assert manifest["exit_code"] == 0


class TestPresets:
    def test_all_variants_parse(self):
        for name in PRESETS:
            for label, cfg_dict in preset_variants(name):
                assert isinstance(label, str) and label
                cfg = ExperimentConfig.from_dict(cfg_dict)
                assert cfg.figure_preset == name

    def test_variants_are_copies(self):
        a = preset_variants("fig2")
        a[0][1]["p"] = -99.0
        b = preset_variants("fig2")
        assert b[0][1]["p"] != -99.0

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            preset_variants("fig99")

    def test_expected_shapes(self):
        names = set(PRESETS)
        assert {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1"} == names
        fig8 = dict(preset_variants("fig8"))
        assert set(fig8) == {"alpha07", "alpha10"}
        assert fig8["alpha07"]["scheduling"] is True
        table1 = dict(preset_variants("table1"))
        assert set(table1) == {"m2", "m4"}
        assert tuple(table1["m2"]["modes"]) == ("id_id", "eh_eh")

    def test_apply_overrides(self):
        _, d = preset_variants("fig2")[0]
        out = apply_overrides(d, ["e_grid_points=6", 'seeds=[1]', 'output_dir="x"'])
        assert out["e_grid_points"] == 6
        assert out["seeds"] == [1]
        assert out["output_dir"] == "x"
        # unknown keys surface when the config is built
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_dict(apply_overrides(d, ["snr=3"]))
        # a value that is not JSON is kept as the bare string
        out = apply_overrides(d, ["figure_preset=mine", " output_dir =runs/a=b"])
        assert out["figure_preset"] == "mine" and out["output_dir"] == "runs/a=b"
        with pytest.raises(InvalidInputError, match="not of the form key=value"):
            apply_overrides(d, ["seeds"])


class TestPlotData:
    def _boundary(self):
        cs = draw_channel_set(2, 2, np.array([[1.0, 0.8], [0.8, 1.0]]), seed=1)
        return re_sweep(cs, "meb", 2.0, n_points=4)

    def test_emit_and_read_roundtrip(self, tmp_path):
        bd = self._boundary()
        path = tmp_path / "curve.csv"
        emit_plot_data(bd, path, label="meb", seed=1)
        text = path.read_text().splitlines()
        assert text[0] == ",".join(CSV_COLUMNS)
        assert len(text) == 1 + len(bd.points)
        rows = read_plot_data(path)
        assert len(rows) == len(bd.points)
        for row, pt in zip(rows, bd.points):
            assert row["strategy"] == "meb"
            assert row["seed"] == 1
            assert row["e_bar"] == pytest.approx(pt.e_bar, rel=1e-10)
            assert row["rate_bits"] == pytest.approx(pt.rate_bits, rel=1e-10)
            assert row["energy"] == pytest.approx(pt.energy, rel=1e-10)

    def test_empty_dual_fields(self, tmp_path):
        pts = [
            REPoint(e_bar=0.0, rate_bits=1.0, energy=0.5, p1=0.0, branch="NO_TX", iterations=2),
            REPoint(
                e_bar=1.0,
                rate_bits=0.5,
                energy=1.0,
                p1=2.0,
                branch="DUAL",
                iterations=4,
                lam=0.25,
                mu=1.5,
            ),
        ]
        bd = REBoundary(points=pts, strategy="meb", channel_digest="d", e_max=1.0)
        path = tmp_path / "c.csv"
        emit_plot_data(bd, path, label="meb", seed=3)
        lines = path.read_text().splitlines()
        first = lines[1].split(",")
        assert first[CSV_COLUMNS.index("lambda")] == ""
        assert first[CSV_COLUMNS.index("mu")] == ""
        assert first[CSV_COLUMNS.index("p1")] == "0"
        rows = read_plot_data(path)
        assert rows[0]["lambda"] is None
        assert rows[1]["lambda"] == pytest.approx(0.25)
        assert rows[1]["mu"] == pytest.approx(1.5)
        assert rows[0]["iterations"] == 2

    @staticmethod
    def _fmt(x):
        # one field as the writers once formatted it, field by field
        if x is None:
            return ""
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".12g")

    def _reference(self, label, seed, points):
        lines = [",".join(CSV_COLUMNS)]
        for pt in sorted(points, key=lambda q: q.e_bar):
            fields = (pt.e_bar, pt.rate_bits, pt.energy, pt.p1)
            lines.append(
                ",".join(
                    (label, self._fmt(seed), *map(self._fmt, fields), pt.branch)
                    + (str(int(pt.iterations)), self._fmt(pt.lam), self._fmt(pt.mu))
                )
            )
        return ("\n".join(lines) + "\n").encode()

    def test_rows_match_the_field_by_field_reference(self, tmp_path):
        # byte for byte: None multipliers, numpy ints and floats, signed
        # zeros, nan, and a time-sharing curve
        pts = [
            REPoint(e_bar=-0.0, rate_bits=1.0 / 3.0, energy=0.0, p1=0.0, branch="NO_TX",
                    iterations=np.int64(2)),
            REPoint(e_bar=np.float64(0.1), rate_bits=float("nan"), energy=np.float32(0.3),
                    p1=np.int64(2), branch="DUAL", iterations=7, lam=np.float64(2.5e-17),
                    mu=-0.0),
            REPoint(e_bar=1e13 / 7.0, rate_bits=123456789.123456789, energy=1e-300,
                    p1=2.0, branch="WF", iterations=0, lam=None, mu=1.0),
            REPoint(e_bar=2e15 / 3.0, rate_bits=-0.0, energy=float("inf"), p1=1e-320,
                    branch="CAP", iterations=np.int32(3), lam=0.25),
        ]
        bd = REBoundary(points=pts, strategy="sler", channel_digest="d", e_max=1.0)
        for seed in (None, 4, np.int64(5)):
            path = emit_plot_data(bd, tmp_path / "c.csv", seed=seed)
            assert path.read_bytes() == self._reference("sler", seed, pts)
        meb = self._boundary()
        ts = time_sharing_curve(meb, np.linspace(0.0, 1.0, 7))
        for bd in (meb, ts):
            path = emit_plot_data(bd, tmp_path / "ts.csv", label="meb_ts", seed=1)
            assert path.read_bytes() == self._reference("meb_ts", 1, bd.points)

    def test_aggregate_matches_the_field_by_field_reference(self, tmp_path):
        one = REPoint(e_bar=0.5, rate_bits=2.0 / 3.0, energy=np.float64(0.7), p1=1.0,
                      branch="WF", iterations=1)
        two = REPoint(e_bar=1.5, rate_bits=-0.0, energy=float("nan"), p1=1.0,
                      branch="WF", iterations=1)
        by_seed = {
            2: {"curves": {"a": [one, None, two], "b": [two]}},
            1: {"curves": {"a": [two, None, one, one]}},
        }
        path = experiments._write_aggregate(tmp_path / "agg.csv", ["a", "b"], by_seed)
        f = self._fmt
        want = [
            "strategy,grid_index,e_norm,n_seeds,e_bar,rate_bits,energy",
            ",".join(("a", "0", f(0.0), "2", f(1.0), f(np.mean([-0.0, 2.0 / 3.0])), f(float("nan")))),
            ",".join(("a", "2", f(2.0 / 3.0), "2", f(1.0), f(np.mean([2.0 / 3.0, -0.0])), "nan")),
            ",".join(("a", "3", f(1.0), "1", f(0.5), f(2.0 / 3.0), f(0.7))),
            ",".join(("b", "0", f(0.0), "1", f(1.5), f(-0.0), f(float("nan")))),
        ]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            read_plot_data(path)


class TestSeedLocksteps:
    """A seed's strategies are swept in one `_solve_many` lockstep per beam
    rule kind and factor width, to the curves each strategy's own
    `re_sweep` gives."""

    @pytest.mark.parametrize(
        "preset, strategies, locksteps",
        [
            ("fig6", None, [["meb", "mlb"], ["slnr", "sler"]]),
            ("fig3", None, [["meb", "mlb"], ["meb_rank2"]]),
            ("fig6", ["sler"], [["sler"]]),
        ],
    )
    def test_curves_match_own_sweeps(self, tmp_path, monkeypatch, preset, strategies, locksteps):
        [(_, d)] = preset_variants(preset)
        d.update(seeds=[1, 2], output_dir=str(tmp_path))
        if strategies is not None:
            d["strategies"] = strategies
        cfg = ExperimentConfig.from_dict(d)
        real = boundary._solve_many
        calls = []

        def solve_many(jobs):
            calls.append([ctx.strategy for ctx, _ in jobs])
            return real(jobs)

        monkeypatch.setattr(boundary, "_solve_many", solve_many)
        for seed in cfg.seeds:
            calls.clear()
            got = experiments._seed_task(cfg, seed)
            assert calls == locksteps
            cs = draw_channel_set(cfg.m_t, cfg.m_r, np.asarray(cfg.alpha), seed)
            for strategy in cfg.strategies:
                own = re_sweep(cs, strategy, cfg.p, n_points=cfg.e_grid_points)
                want = experiments._curve_slots(own, cfg.e_grid_points)
                assert [repr(pt) for pt in got["curves"][strategy]] == [repr(pt) for pt in want]


class TestRunExperiment:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, strategies=("meb", "mlb"), seeds=(1, 2))
        manifest = run_experiment(cfg)
        out = tmp_path / "out"
        for label in ("meb", "mlb"):
            for seed in (1, 2):
                assert (out / f"curve_{label}_seed{seed}.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "summary.json").exists()
        assert manifest["exit_code"] == 0
        assert set(manifest["channels"]) == {"1", "2"}
        with open(out / "summary.json") as fh:
            on_disk = json.load(fh)
        assert on_disk["config"] == cfg.to_dict()
        assert sorted(on_disk["artifacts"]) == on_disk["artifacts"]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = _tiny_cfg(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = _tiny_cfg(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a = (tmp_path / "a" / "curve_meb_seed1.csv").read_bytes()
        b = (tmp_path / "b" / "curve_meb_seed1.csv").read_bytes()
        assert a == b
        agg_a = (tmp_path / "a" / "aggregate.csv").read_bytes()
        agg_b = (tmp_path / "b" / "aggregate.csv").read_bytes()
        assert agg_a == agg_b

    def test_worker_count_does_not_change_output(self, tmp_path):
        # the pool ships the checked config itself to each worker
        modes = ("id_id", "eh_eh")
        cfg_a = _tiny_cfg(tmp_path, seeds=(1, 2), modes=modes, output_dir=str(tmp_path / "w1"))
        cfg_b = _tiny_cfg(tmp_path, seeds=(1, 2), modes=modes, output_dir=str(tmp_path / "w2"))
        one = run_experiment(cfg_a, workers=1)
        two = run_experiment(cfg_b, workers=2)
        for name in (
            "curve_meb_seed1.csv",
            "curve_meb_seed2.csv",
            "aggregate.csv",
            "modes.csv",
        ):
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name
            ).read_bytes()
        for key in ("channels", "gaps", "unconverged_games", "exit_code"):
            assert one[key] == two[key]

    def test_time_sharing_curves(self, tmp_path):
        cfg = _tiny_cfg(tmp_path, time_sharing=True, ts_points=5)
        run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "curve_meb_ts_seed1.csv").exists()

    def test_scheduling_artifacts(self, tmp_path):
        cfg = _tiny_cfg(
            tmp_path,
            strategies=("sler",),
            scheduling=True,
            modes=("id_id", "eh_eh"),
        )
        run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "curve_sler_sched_seed1.csv").exists()
        assert (out / "curve_sler_swap_seed1.csv").exists()
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0] == "mode,seed,m_t,m_r,rate_bits,energy"
        tags = {ln.split(",")[0] for ln in lines[1:]}
        assert {"id_id", "eh_eh"} <= tags

    @pytest.mark.parametrize("strategies", [(), ("meb",)])
    def test_scheduling_writes_all_three_curves(self, tmp_path, strategies):
        # the scheduled run's own-orientation sler sweep is written even
        # where `strategies` does not list sler, as with sler listed
        cfg = _tiny_cfg(tmp_path, strategies=strategies, scheduling=True, seeds=(1, 2))
        listed = _tiny_cfg(tmp_path, strategies=("sler",), scheduling=True, seeds=(1, 2))
        artifacts = run_experiment(cfg)["artifacts"]
        out = tmp_path / "out"
        labels = [f"{s}_seed{seed}" for s in strategies for seed in (1, 2)]
        labels += [f"{s}_seed{seed}" for s in ("sler", "sler_swap", "sler_sched") for seed in (1, 2)]
        want = {str(out / f"curve_{label}.csv") for label in labels}
        assert set(artifacts) == want | {str(out / "aggregate.csv")}
        got = {label: (out / f"curve_{label}.csv").read_text() for label in labels}
        run_experiment(listed)
        for label in labels:
            if not label.startswith("meb"):
                assert got[label] == (out / f"curve_{label}.csv").read_text()

    def test_aggregate_matches_on_common_grid(self, tmp_path):
        # single seed: aggregate rows are just that seed's curve again
        cfg = _tiny_cfg(tmp_path)
        run_experiment(cfg)
        out = tmp_path / "out"
        rows = read_plot_data(out / "curve_meb_seed1.csv")
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "strategy,grid_index,e_norm,n_seeds,e_bar,rate_bits,energy"
        assert len(agg) == 1 + len(rows)
        first = agg[1].split(",")
        assert first[0] == "meb"
        assert int(first[3]) == 1
        assert float(first[5]) == pytest.approx(rows[0]["rate_bits"], rel=1e-10)

    def test_multi_seed_aggregate_bytes(self, tmp_path):
        # rows averaging several seeds keep np.mean, while single-seed rows
        # write the value itself; the bytes of a three-seed aggregate
        cfg = _tiny_cfg(
            tmp_path,
            strategies=("meb", "sler"),
            seeds=(1, 2, 3),
            time_sharing=True,
            ts_points=3,
            scheduling=True,
        )
        run_experiment(cfg)
        assert (tmp_path / "out" / "aggregate.csv").read_text() == _AGGREGATE_3_SEEDS

    def test_scheduled_gap_reported(self, tmp_path, monkeypatch):
        # a scheduled target neither orientation reaches is a gap: it sets
        # the exit code and leaves its grid index empty in the aggregate
        real = experiments.scheduled_run

        def one_gap(*args, **kwargs):
            own, swapped, sched, tags = real(*args, **kwargs)
            pt = sched.points[2]
            sched = dataclasses.replace(
                sched,
                points=sched.points[:2] + sched.points[3:],
                gaps=[(2, pt.e_bar, "unreachable")],
            )
            return own, swapped, sched, tags[:2] + tags[3:]

        monkeypatch.setattr(experiments, "scheduled_run", one_gap)
        cfg = _tiny_cfg(tmp_path, strategies=("sler",), scheduling=True)
        manifest = run_experiment(cfg)
        assert manifest["exit_code"] == 2
        ((k, _, msg),) = manifest["gaps"]["1"]["sler_sched"]
        assert (k, msg) == (2, "unreachable")
        out = tmp_path / "out"
        assert len(read_plot_data(out / "curve_sler_sched_seed1.csv")) == 3
        agg = [ln.split(",") for ln in (out / "aggregate.csv").read_text().splitlines()[1:]]
        assert [int(r[1]) for r in agg if r[0] == "sler_sched"] == [0, 1, 3]
        assert [int(r[1]) for r in agg if r[0] == "sler"] == [0, 1, 2, 3]

    def test_unconverged_games_in_summary(self, tmp_path):
        # at p = 2 the 2x2 game of seed 1 converges and that of seed 2 stops
        # at its round limit
        cfg = _tiny_cfg(tmp_path, strategies=(), modes=("id_id",), seeds=(1, 2))
        manifest = run_experiment(cfg)
        game = iterative_waterfilling(draw_channel_set(2, 2, np.array(cfg.alpha), 2), cfg.p)
        assert not game.converged
        want = {"2": {"rounds": game.iterations, "last_step": game.deltas[-1]}}
        assert manifest["unconverged_games"] == want
        assert manifest["exit_code"] == 0
        out = tmp_path / "out"
        with open(out / "summary.json") as fh:
            assert json.load(fh)["unconverged_games"] == want
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0] == "mode,seed,m_t,m_r,rate_bits,energy"

    def test_output_dir_under_a_regular_file(self, tmp_path):
        (tmp_path / "file").write_text("")
        cfg = _tiny_cfg(tmp_path, output_dir=str(tmp_path / "file" / "out"))
        with pytest.raises(InvalidInputError, match="is not writable"):
            run_experiment(cfg)

    @pytest.mark.parametrize("workers", [0, -3, "2", 2.0, True, None])
    def test_rejects_bad_worker_counts(self, tmp_path, workers):
        # checked before the output directory is made
        with pytest.raises(InvalidInputError, match="workers must be an integer >= 1"):
            run_experiment(_tiny_cfg(tmp_path), workers=workers)
        assert not (tmp_path / "out").exists()

    def test_pool_never_exceeds_the_seed_count(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and maps in this process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cases = [(8, (1, 2), 2), (2, (1, 2, 3), 2), (np.int64(3), (1, 2, 3), 3), (8, (1,), None)]
        for k, (workers, seeds, want) in enumerate(cases):
            sizes.clear()
            out = tmp_path / f"run{k}"
            run_experiment(_tiny_cfg(tmp_path, seeds=seeds, output_dir=str(out)), workers=workers)
            assert sizes == ([] if want is None else [want])
            assert all(type(n) is int for n in sizes)
            assert len(list(out.glob("curve_meb_seed*.csv"))) == len(seeds)

    def test_requires_output_dir(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        d = cfg.to_dict()
        d["output_dir"] = None
        with pytest.raises(InvalidInputError):
            run_experiment(ExperimentConfig.from_dict(d))

    def test_accepts_plain_dict(self, tmp_path):
        manifest = run_experiment(_tiny_cfg(tmp_path).to_dict())
        assert manifest["exit_code"] == 0


_AGGREGATE_3_SEEDS = """\
strategy,grid_index,e_norm,n_seeds,e_bar,rate_bits,energy
meb,0,0,3,0,2.17390572359,1.51791147532
meb,1,0.333333333333,3,2.08744277427,2.0390715374,2.08744277427
meb,2,0.666666666667,3,4.17488554855,1.69182524647,4.17488554855
meb,3,1,3,6.26232832282,1.18262659353,6.26232832282
meb_ts,0,0,3,1.51791147532,2.17390572359,1.51791147532
meb_ts,1,0.5,3,3.89011989907,1.67826615856,3.89011989907
meb_ts,2,1,3,6.26232832282,1.18262659353,6.26232832282
sler,0,0,3,0,2.17390572359,1.51791147532
sler,1,0.333333333333,3,2.05421171447,2.11330998956,2.05867968488
sler,2,0.666666666667,3,4.10842342895,1.87517144,4.1084234292
sler,3,1,3,6.16263514342,1.21000718187,6.16263514342
sler_swap,0,0,3,0,2.15465823554,1.61876811137
sler_swap,1,0.333333333333,3,2.03212496102,2.10446194946,2.30293433811
sler_swap,2,0.666666666667,3,4.06424992203,1.76906268397,4.06424992205
sler_swap,3,1,3,6.09637488305,1.2948926478,6.09637488305
sler_sched,0,0,3,0,2.17170500255,1.48067816535
sler_sched,1,0.333333333333,3,2.12399819396,2.13311215443,2.39209097043
sler_sched,2,0.666666666667,3,4.24799638791,1.78849464391,4.24799638793
sler_sched,3,1,3,6.37199458187,1.2822704726,6.37199458187
"""


def test_runtime_imports_numpy_only():
    # a fresh interpreter: the production modules load neither scipy nor the oracles
    src = str(Path(swiptifc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys, swiptifc, swiptifc.experiments; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'swiptifc.oracle'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_experiments_import_no_process_pool():
    # the process pool's modules load only when a run fans seeds out
    src = str(Path(swiptifc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, swiptifc.experiments; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"
