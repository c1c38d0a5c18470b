"""Monte-Carlo experiment harness: presets, sweeps, CSV artifacts.

A run is described by an `ExperimentConfig`: channel dimensions, gain
profile, power budget, the transmitter-1 strategies to sweep, and the seed
list.  Per seed it draws one channel realization, traces the requested
tradeoff curves, and writes one CSV per curve plus one aggregate CSV of
per-grid-index means across seeds (curves are averaged at matched indices
of their own normalized energy grids, since the reachable energy range
varies per realization).  A JSON summary records the config, channel
digests, artifact list, timing, and the seeds whose (decode, decode)
water-filling game stopped at its round limit without converging, with the
rounds run and the last covariance step.

Exit codes: 0 full success, 1 hard error, 2 completed with gap-marked
sweep points.
"""

import dataclasses
import json
import math
import numbers
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .beamformers import STRATEGIES, _eh_eh_energy, iterative_waterfilling
from .boundary import _sweeps, time_sharing_curve
from .channel import _is_int, channel_digest, draw_channel_set
from .exceptions import InvalidInputError
from .linalg import _as_real
from .scheduling import MODES, scheduled_run

__all__ = [
    "CSV_COLUMNS",
    "ExperimentConfig",
    "PRESETS",
    "preset_variants",
    "apply_overrides",
    "emit_plot_data",
    "read_plot_data",
    "run_experiment",
]

CSV_COLUMNS = (
    "strategy",
    "seed",
    "e_bar",
    "rate_bits",
    "energy",
    "p1",
    "branch",
    "iterations",
    "lambda",
    "mu",
)

_AGG_COLUMNS = ("strategy", "grid_index", "e_norm", "n_seeds", "e_bar", "rate_bits", "energy")

# one row of each CSV: floats carry 12 significant digits ("%.12g" % x is
# format(float(x), ".12g")), counts print as integers, and a multiplier is
# formatted apart (`_multiplier`) because None leaves its column empty
_ROW = "%s,%s,%.12g,%.12g,%.12g,%.12g,%s,%d,%s,%s\n"
_AGG_ROW = "%s,%d,%.12g,%d,%.12g,%.12g,%.12g\n"
_MODE_ROW = "%s,%d,%d,%d,%.12g,%.12g\n"

# the size fields and their largest values: a run's complex arrays of m_t^2,
# m_r^2, e_grid_points or ts_points entries must stay within the byte count
# numpy's index type can address
_MAX_ENTRIES = int(np.iinfo(np.intp).max) // np.dtype(np.complex128).itemsize
_SIZES = (
    ("m_t", math.isqrt(_MAX_ENTRIES)),
    ("m_r", math.isqrt(_MAX_ENTRIES)),
    ("e_grid_points", _MAX_ENTRIES),
    ("ts_points", _MAX_ENTRIES),
)


def _multiplier(x):
    return "" if x is None else "%.12g" % x


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; serializable to flat JSON."""

    m_t: int
    m_r: int
    alpha: tuple
    p: float = 50.0
    strategies: tuple = ("meb", "mlb")
    e_grid_points: int = 64
    seeds: tuple = (1,)
    modes: tuple = ()
    time_sharing: bool = False
    scheduling: bool = False
    ts_points: int = 33
    output_dir: str | None = None
    figure_preset: str | None = None

    def __post_init__(self):
        try:
            alpha = tuple(tuple(float(a) for a in row) for row in self.alpha)
            strategies, seeds, modes = (tuple(v) for v in (self.strategies, self.seeds, self.modes))
        except OverflowError:  # an integer too large for a float
            raise InvalidInputError("alpha entries must be positive finite") from None
        except (TypeError, ValueError) as exc:
            msg = f"alpha, strategies, seeds and modes must be sequences ({exc})"
            raise InvalidInputError(msg) from None
        for name, limit in _SIZES:
            value = getattr(self, name)
            if not _is_int(value):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            if value > limit:
                raise InvalidInputError(f"{name} is too large: numpy cannot index its arrays")
            object.__setattr__(self, name, int(value))
        if not all(_is_int(s) and s >= 0 for s in seeds) or len(set(seeds)) != len(seeds):
            msg = f"seeds must be distinct nonnegative integers, got {list(seeds)!r}"
            raise InvalidInputError(msg)
        if isinstance(self.p, bool) or not isinstance(self.p, numbers.Real):
            raise InvalidInputError(f"power budget must be a real number, got {self.p!r}")
        # the summary writes the config as JSON: plain numbers, bools and strings only
        object.__setattr__(self, "p", _as_real(self.p, "power budget", positive=True))
        for name in ("time_sharing", "scheduling"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise InvalidInputError(f"{name} must be true or false, got {value!r}")
            object.__setattr__(self, name, bool(value))
        if isinstance(self.output_dir, os.PathLike):
            object.__setattr__(self, "output_dir", os.fspath(self.output_dir))
        for name in ("output_dir", "figure_preset"):
            value = getattr(self, name)
            if not isinstance(value, (str, type(None))):
                raise InvalidInputError(f"{name} must be a string, got {value!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        object.__setattr__(self, "modes", modes)
        if self.m_t < 1 or self.m_r < 1:
            raise InvalidInputError("antenna counts must be positive")
        if len(self.alpha) != 2 or any(len(r) != 2 for r in self.alpha):
            raise InvalidInputError("alpha must be a 2x2 gain table")
        if any(a <= 0 or not np.isfinite(a) for r in self.alpha for a in r):
            raise InvalidInputError("alpha entries must be positive finite")
        if self.e_grid_points < 2:
            raise InvalidInputError("e_grid_points must be >= 2")
        if not self.seeds:
            raise InvalidInputError("seed list must be nonempty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise InvalidInputError(f"unknown strategy {s!r}")
        for m in self.modes:
            if m in ("eh1_id2", "id1_eh2"):
                raise InvalidInputError(f"mode {m!r} is swept by `strategies` and `scheduling`")
            if m not in MODES:
                raise InvalidInputError(f"unknown mode {m!r}")
        for name in ("strategies", "modes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise InvalidInputError(f"{name} must be distinct, got {list(values)!r}")
        if self.ts_points < 2:
            raise InvalidInputError("ts_points must be >= 2")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["alpha"] = [list(r) for r in self.alpha]
        d["strategies"] = list(self.strategies)
        d["seeds"] = list(self.seeds)
        d["modes"] = list(self.modes)
        return d

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise InvalidInputError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)


def _alpha(off_diag):
    return ((1.0, off_diag), (off_diag, 1.0))


def _preset(name, **kw):
    base = dict(m_t=4, m_r=4, alpha=_alpha(0.8), p=50.0, figure_preset=name)
    base.update(kw)
    return base


PRESETS = {
    # two rank-one strategies plus their time-sharing baselines
    "fig2": [("main", _preset("fig2", strategies=("meb", "mlb"), time_sharing=True))],
    # rank-one against the fixed rank-two split
    "fig3": [("main", _preset("fig3", strategies=("meb", "meb_rank2", "mlb")))],
    # low-power regime
    "fig4": [("main", _preset("fig4", p=0.1, strategies=("meb", "mlb")))],
    # large arrays
    "fig5": [("main", _preset("fig5", m_t=15, m_r=15, strategies=("meb", "mlb")))],
    # all four strategies, censused over 50 draws
    "fig6": [
        (
            "main",
            _preset(
                "fig6",
                strategies=("meb", "mlb", "slnr", "sler"),
                seeds=tuple(range(1, 51)),
            ),
        )
    ],
    # asymmetric arrays
    "fig7": [
        ("main", _preset("fig7", m_t=3, m_r=4, strategies=("meb", "mlb", "slnr", "sler")))
    ],
    # scheduling on/off at two interference levels
    "fig8": [
        (
            "alpha07",
            _preset(
                "fig8",
                m_t=2,
                m_r=2,
                alpha=_alpha(0.7),
                strategies=("sler",),
                scheduling=True,
                seeds=tuple(range(1, 101)),
            ),
        ),
        (
            "alpha10",
            _preset(
                "fig8",
                m_t=2,
                m_r=2,
                alpha=_alpha(1.0),
                strategies=("sler",),
                scheduling=True,
                seeds=tuple(range(1, 101)),
            ),
        ),
    ],
    # single-mode operating points at two array sizes, paired seeds
    "table1": [
        (
            "m2",
            _preset(
                "table1",
                m_t=2,
                m_r=2,
                strategies=(),
                modes=("id_id", "eh_eh"),
                seeds=tuple(range(1, 201)),
            ),
        ),
        (
            "m4",
            _preset(
                "table1",
                strategies=(),
                modes=("id_id", "eh_eh"),
                seeds=tuple(range(1, 201)),
            ),
        ),
    ],
}


def preset_variants(name):
    """(label, config dict) pairs of a preset; dicts are deep copies."""
    if name not in PRESETS:
        raise InvalidInputError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return [(label, json.loads(json.dumps(d))) for label, d in PRESETS[name]]


def apply_overrides(cfg_dict, overrides):
    """Apply `key=value` strings onto a config dict; values parse as JSON
    first, bare strings second."""
    out = dict(cfg_dict)
    for item in overrides:
        if "=" not in item:
            raise InvalidInputError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        out[key] = val
    return out


# ---------------------------------------------------------------------------
# CSV plumbing


def _write_text(path, text):
    """Write one file of a run; an OSError becomes InvalidInputError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    return Path(path)


def emit_plot_data(boundary, path, label=None, seed=None):
    """Write one tradeoff curve as CSV with the fixed column schema.

    Floats carry 12 significant digits; rows are sorted by energy target;
    multiplier columns stay empty where no dual pair was resolved.  The
    label may hold no comma or line break, and the seed must be None or a
    nonnegative integer, so `read_plot_data` reads every file written.
    """
    label = str(boundary.strategy if label is None else label)
    seed = boundary.seed if seed is None else seed
    if any(c in label for c in ",\r\n"):
        raise InvalidInputError(f"curve label {label!r} holds a comma or line break")
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise InvalidInputError(f"curve seed must be a nonnegative integer or None, got {seed!r}")
    seed = "" if seed is None else str(int(seed))
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for pt in sorted(boundary.points, key=lambda q: q.e_bar):
        lines.append(
            _ROW
            % (
                label,
                seed,
                pt.e_bar,
                pt.rate_bits,
                pt.energy,
                pt.p1,
                pt.branch,
                pt.iterations,
                _multiplier(pt.lam),
                _multiplier(pt.mu),
            )
        )
    return _write_text(path, "".join(lines))


def read_plot_data(path):
    """Parse an emitted curve CSV back into a list of row dicts.

    The inverse of `emit_plot_data`: a row with the wrong field count, or a
    number, count or seed that does not parse, raises InvalidInputError
    naming the file and line."""
    rows = []
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise InvalidInputError(f"unexpected CSV header in {path}: {header}")
        for n, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(CSV_COLUMNS):
                msg = f"{path} line {n}: {len(parts)} fields, want {len(CSV_COLUMNS)}"
                raise InvalidInputError(msg)
            row = dict(zip(CSV_COLUMNS, parts))
            try:
                for key in ("e_bar", "rate_bits", "energy", "p1"):
                    row[key] = float(row[key])
                for key in ("lambda", "mu"):
                    row[key] = float(row[key]) if row[key] != "" else None
                row["seed"] = int(row["seed"]) if row["seed"] != "" else None
                row["iterations"] = int(row["iterations"])
            except ValueError as exc:
                raise InvalidInputError(f"{path} line {n}: {exc}") from None
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# per-seed work unit (top level so a process pool can ship it)


def _curve_slots(boundary):
    """The boundary's points on its grid of points and gaps together, with
    None at each gap's index (the solver lists gaps in grid order)."""
    slots = list(boundary.points)
    for k, _, _ in boundary.gaps:
        slots.insert(k, None)
    return slots


def _seed_task(cfg, seed):
    """One seed's curves and mode rows under a checked `ExperimentConfig`.

    `curves` maps each label to its `REBoundary`, in the order that the
    aggregate's rows follow: each strategy of `strategies`, then its
    time-sharing line `<strategy>_ts` where one is asked for (it joins the
    ends of the meb or mlb sweep it follows), and last any scheduled curve
    that `strategies` does not list.  With scheduling on, both orientations'
    sler sweeps and the scheduled sweep come from one `scheduled_run`, whose
    single lockstep spans both orientations, and all three are written
    whatever `strategies` lists; the others share `re_sweep`'s path
    (`_sweeps`).  The (harvest, harvest) row reads the optimum's energy
    alone (`_eh_eh_energy`), with no covariance built."""
    t0 = time.perf_counter()
    cs = draw_channel_set(cfg.m_t, cfg.m_r, np.asarray(cfg.alpha), seed)
    curves = {}
    scheduled = {}
    if cfg.scheduling:
        own, swapped, sched, _tags = scheduled_run(cs, cfg.p, n_points=cfg.e_grid_points)
        scheduled = {"sler": own, "sler_swap": swapped, "sler_sched": sched}
    swept = [s for s in cfg.strategies if s not in scheduled]
    sweeps = dict(zip(swept, _sweeps(cs, swept, cfg.p, cfg.e_grid_points))) | scheduled
    for strategy in cfg.strategies:
        b = curves[strategy] = sweeps[strategy]
        if cfg.time_sharing and strategy in ("meb", "mlb"):
            curves[f"{strategy}_ts"] = time_sharing_curve(b, np.linspace(0.0, 1.0, cfg.ts_points))
    # scheduling writes all three of its curves, sler's too where
    # `strategies` does not list it
    for label, b in scheduled.items():
        curves.setdefault(label, b)
    mode_rows = []
    game = None
    if "id_id" in cfg.modes:
        iwf = iterative_waterfilling(cs, cfg.p)
        mode_rows.append(("id_id", float(sum(iwf.rates)), 0.0))
        if not iwf.converged:
            game = {"rounds": iwf.iterations, "last_step": iwf.deltas[-1]}
    if "eh_eh" in cfg.modes:
        e_total, _ = _eh_eh_energy(cs, cfg.p)
        mode_rows.append(("eh_eh", 0.0, e_total))
    return {
        "seed": seed,
        "digest": channel_digest(cs),
        "curves": curves,
        "modes": mode_rows,
        "unconverged_game": game,
        "elapsed": time.perf_counter() - t0,
    }


def _write_aggregate(path, labels, results):
    """Per-grid-index means of each label's curves across the seeds'
    records, averaged in ascending seed order.

    Each seed's `REBoundary` lies on its own grid (`_curve_slots`): a
    sweep's or scheduled curve's targets, or a time-sharing line's points.
    Index k of a label averages the seeds with a point at k."""
    results = sorted(results, key=lambda r: r["seed"])
    lines = [",".join(_AGG_COLUMNS) + "\n"]
    for label in labels:
        slot_lists = [_curve_slots(r["curves"][label]) for r in results]
        n = max(len(sl) for sl in slot_lists)
        for k in range(n):
            pts = [sl[k] for sl in slot_lists if k < len(sl) and sl[k] is not None]
            if not pts:
                continue
            e_norm = k / (n - 1) if n > 1 else 0.0
            if len(pts) == 1:
                # the mean of one value is that value
                means = (pts[0].e_bar, pts[0].rate_bits, pts[0].energy)
            else:
                means = (
                    np.mean([p.e_bar for p in pts]),
                    np.mean([p.rate_bits for p in pts]),
                    np.mean([p.energy for p in pts]),
                )
            lines.append(_AGG_ROW % ((label, k, e_norm, len(pts)) + means))
    return _write_text(path, "".join(lines))


def run_experiment(cfg, workers=1):
    """Run one experiment config end to end; returns the artifact manifest.

    Fans seeds out to a pool of min(`workers`, seed count) processes when
    that exceeds 1 (results are collected in seed order either way, so the
    artifacts are identical).  `workers` must be an integer >= 1.  A file
    that cannot be written raises InvalidInputError (`_write_text`).
    """
    if not (_is_int(workers) and workers >= 1):
        raise InvalidInputError(f"workers must be an integer >= 1, got {workers!r}")
    if isinstance(cfg, dict):
        cfg = ExperimentConfig.from_dict(cfg)
    if cfg.output_dir is None:
        raise InvalidInputError("config has no output_dir")
    t0 = time.perf_counter()
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise InvalidInputError(f"output dir {outdir} is not writable: {exc}") from exc

    cfg_dict = cfg.to_dict()
    seeds = list(cfg.seeds)
    if workers > 1 and len(seeds) > 1:
        # imported here, so a run in one process never loads the pool's
        # modules (about 8 ms per interpreter)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(int(workers), len(seeds))) as pool:
            results = list(pool.map(_seed_task, [cfg] * len(seeds), seeds))
    else:
        results = [_seed_task(cfg, s) for s in seeds]

    # every seed holds the same labels, in one order (`_seed_task`)
    labels = list(results[0]["curves"])
    artifacts = []
    for label in labels:
        for r in results:
            path = outdir / f"curve_{label}_seed{r['seed']}.csv"
            artifacts.append(str(emit_plot_data(r["curves"][label], path, label, r["seed"])))
    if labels:
        artifacts.append(str(_write_aggregate(outdir / "aggregate.csv", labels, results)))
    if cfg.modes:
        lines = ["mode,seed,m_t,m_r,rate_bits,energy\n"]
        for r in results:
            for tag, rate, energy in r["modes"]:
                lines.append(_MODE_ROW % (tag, r["seed"], cfg.m_t, cfg.m_r, rate, energy))
        artifacts.append(str(_write_text(outdir / "modes.csv", "".join(lines))))

    gaps = {}
    for r in results:
        seed_gaps = {label: b.gaps for label, b in r["curves"].items() if b.gaps}
        if seed_gaps:
            gaps[str(r["seed"])] = seed_gaps
    manifest = {
        "config": cfg_dict,
        "version": __version__,
        "channels": {str(r["seed"]): r["digest"] for r in results},
        "artifacts": sorted(artifacts),
        "gaps": gaps,
        "unconverged_games": {
            str(r["seed"]): r["unconverged_game"] for r in results if r["unconverged_game"]
        },
        "seconds_per_seed": {str(r["seed"]): round(r["elapsed"], 3) for r in results},
        "seconds_total": round(time.perf_counter() - t0, 3),
        "exit_code": 2 if gaps else 0,
    }
    _write_text(outdir / "summary.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
