"""Benchmark of the swiptifc rate-energy solver, end to end and per layer.

    python3 perfbench/run.py --workload sweep-4x4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a source checkout (the package is imported from
src/).  With --trace 0 the last line of standard output is one JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced pass, plus that pass's overhead against an untraced pass over
the same operations.  Every operation's output files are checked against
computations made in perfbench/reference.py.  Result and span files go to
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference as ref  # noqa: E402
from workloads import P, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def measure_setup(name, seed, seconds):
    """Median over SETUP_PROBES fresh interpreters of the time from spawn
    until the first operation could start.  One more, untimed, probe runs
    first so byte-code compilation of a fresh checkout is not counted."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(seconds)]
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if k:
            times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_ops(experiments, configs, outdir):
    """Run each config once, in order.  Returns (records, phase seconds)."""
    records = []
    t_start = time.perf_counter()
    for i, cfg in enumerate(configs):
        cfg = dict(cfg, output_dir=str(outdir / f"op{i}"))
        t0 = time.perf_counter()
        try:
            manifest = experiments.run_experiment(cfg, workers=1)
            error = None
        except Exception:  # a failed operation is counted, the run goes on
            manifest, error = None, traceback.format_exc()
        records.append({"cfg": cfg, "seconds": time.perf_counter() - t0,
                        "manifest": manifest, "error": error})
    return records, time.perf_counter() - t_start


def _read_curve(experiments, outdir, label, seed):
    path = Path(outdir) / f"curve_{label}_seed{seed}.csv"
    with open(path) as fh:
        header = tuple(fh.readline().strip().split(","))
    if header != ref.CURVE_COLUMNS:
        raise ValueError(f"{path.name}: header {header}")
    return experiments.read_plot_data(path)


def check_op(experiments, kind, rec):
    """(failure messages, rate area, wrong) of one operation.

    An operation fails when it raises, reports gaps or fails a check; an
    empty message list means it passed.  `wrong` marks outputs that were
    written but do not hold up.
    """
    if rec["error"] is not None:
        return [rec["error"]], None, False
    if rec["manifest"]["exit_code"] != 0:
        return [f"exit code {rec['manifest']['exit_code']}: {rec['manifest']['gaps']}"], None, False
    try:
        bad, area = _check_outputs(experiments, kind, rec["cfg"])
    except (OSError, ValueError, StopIteration) as exc:  # missing or malformed file
        bad, area = [f"unreadable output: {exc!r}"], None
    return bad, area, bool(bad)


def _check_outputs(experiments, kind, cfg):
    seed = cfg["seeds"][0]
    ch = ref.draw_channels(cfg["m_t"], cfg["m_r"], cfg["alpha"], seed)
    out = cfg["output_dir"]
    c22 = ref.wf_capacity(ch.h22, P)
    if kind == "sweep":
        strategy = cfg["strategies"][0]
        rows = _read_curve(experiments, out, strategy, seed)
        end = ref.endpoint(ch, strategy, P) if strategy in ("meb", "mlb") else None
        bad = ref.check_curve(rows, P, [c22], monotone=True, end=end)
        return bad, ref.rate_area(rows, ref.energy_scale(ch, P))
    if kind == "sched":
        c11 = ref.wf_capacity(ch.h11, P)
        bad = ref.check_curve(_read_curve(experiments, out, "sler", seed), P, [c22], True)
        bad += ref.check_curve(_read_curve(experiments, out, "sler_swap", seed), P, [c11], True)
        rows = _read_curve(experiments, out, "sler_sched", seed)
        bad += ref.check_curve(rows, P, [c22, c11], monotone=False)
        scale = max(ref.energy_scale(ch, P), ref.energy_scale(ch.swapped(), P))
        return bad, ref.rate_area(rows, scale)
    with open(Path(out) / "modes.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != ref.MODES_COLUMNS:
            return [f"modes.csv header {reader.fieldnames}"], None
        rows = [dict(r, rate_bits=float(r["rate_bits"]), energy=float(r["energy"]))
                for r in reader]
    # time sharing between the two corners, energy axis scaled by the
    # all-harvest energy: the area is half the all-decode sum rate
    area = 0.5 * next(r["rate_bits"] for r in rows if r["mode"] == "id_id")
    return ref.check_modes(rows, ch, P), area


def bytes_written(rec):
    """Bytes of the CSV files one operation wrote.  summary.json is left out:
    its timing fields change length from run to run."""
    return sum(f.stat().st_size for f in Path(rec["cfg"]["output_dir"]).glob("*.csv"))


def p50_ms(records):
    times = [r["seconds"] for r in records if r["error"] is None]
    return 1e3 * statistics.median(times) if times else 0.0


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    setup_s = None if trace else measure_setup(name, seed, seconds)

    sys.path.insert(0, str(SRC))
    import swiptifc
    from swiptifc import experiments

    from spans import Tracer, layer_metrics

    configs = workload.configs(seconds)
    workdir = OUT / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    try:
        warmup, _ = run_ops(experiments, [workload.warmup(seed)], workdir / "warmup")
        if trace:
            untraced, _ = run_ops(experiments, configs, workdir / "untraced")
            tracer = Tracer()
            restore = tracer.install(swiptifc)
            try:
                records, phase_s = run_ops(experiments, configs, workdir / "traced")
            finally:
                restore()
            checked = warmup + untraced + records
        else:
            records, phase_s = run_ops(experiments, configs, workdir / "timed")
            checked = warmup + records
        failed, areas, correct = 0, [], True
        for rec in checked:
            bad, area, wrong = check_op(experiments, workload.kind, rec)
            if bad:
                failed += 1
                correct = correct and not wrong
                print(f"FAILED seed {rec['cfg']['seeds'][0]}: {bad[:3]}", file=sys.stderr)
            elif any(rec is r for r in records):
                areas.append(area)
        written = sum(bytes_written(r) for r in records if r["error"] is None) if trace else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = sum(r["error"] is None for r in records)
    if trace:
        metrics = layer_metrics(tracer, len(records), written)
        traced_ms, untraced_ms = p50_ms(records), p50_ms(untraced)
        metrics["trace.spans_per_op"] = (len(tracer.spans) / len(records), "count")
        metrics["trace.op_p50_ms"] = (traced_ms, "ms")
        metrics["trace.untraced_op_p50_ms"] = (untraced_ms, "ms")
        overhead = 100.0 * (traced_ms / untraced_ms - 1.0) if untraced_ms else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (p50_ms(records), "ms"),
            "ops_per_s": (done / phase_s, "1/s"),
            "rate_area_bits": (statistics.fmean(areas) if areas else 0.0, "bits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(line + "\n")
    print(line, flush=True)


def run_all(args):
    """Each workload in its own process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(name, json.dumps(res), flush=True)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1, help="workload seed; draws the warm-up channel")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "swiptifc" / "__init__.py").is_file():
        ap.exit(2, f"no swiptifc sources under {SRC}; run from the root of a checkout\n")
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
