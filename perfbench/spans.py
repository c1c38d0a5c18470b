"""Spans and counters recorded from outside the program.

Each layer's public functions are wrapped at every module attribute that
holds them, which is where their callers look them up (for example
`boundary` calls `solve_p3`, `waterfill`, `sler_beam` and `svd` through
its own globals, `scheduling` calls `re_boundary_point` through its own,
and `experiments` calls `re_sweep` and `scheduled_sweep` through its own).
A wrapper records one span (name, start, end, parent) and, for some layers,
reads counts off the returned value.  Spans stay in memory until the run
writes them out.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name); the module is where the function is defined
WRAPPED = (
    ("linalg", "svd", "linalg.svd"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "inv_sqrt_psd", "linalg.inv_sqrt_psd"),
    ("channel", "draw_channel_set", "channel.draw_channel_set"),
    ("channel", "channel_digest", "channel.channel_digest"),
    ("metrics", "sler", "metrics.sler"),
    ("beamformers", "waterfill", "beamformers.waterfill"),
    ("beamformers", "sler_beam", "beamformers.sler_beam"),
    ("beamformers", "slnr_beam", "beamformers.slnr_beam"),
    ("beamformers", "iterative_waterfilling", "beamformers.iterative_waterfilling"),
    ("beamformers", "eh_eh_optimal", "beamformers.eh_eh_optimal"),
    ("boundary", "solve_p3", "boundary.solve_p3"),
    ("boundary", "re_boundary_point", "boundary.re_boundary_point"),
    ("boundary", "re_sweep", "boundary.re_sweep"),
    ("scheduling", "select_mode", "scheduling.select_mode"),
    ("scheduling", "scheduled_sweep", "scheduling.scheduled_sweep"),
    ("experiments", "run_experiment", "experiments.run_experiment"),
)


class Tracer:
    """Span store plus the counters read off wrapped calls' results."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._sweep_points = {}  # id -> point, for the re_sweep in progress
        self._pick = None        # (channel set, mode) of the last select_mode

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    # -- counters read off results ----------------------------------------

    def _on_solve_p3(self, args, out):
        diag = out[1]
        self.counts["inner_evals"] += diag.iterations
        self.counts["dual_calls"] += diag.branch == "DUAL"
        self.counts["repaired"] += bool(diag.repaired)

    def _on_point(self, args, pt):
        self.counts["outer_rounds"] += pt.iterations
        self._sweep_points[id(pt)] = pt

    def _on_sweep(self, args, boundary):
        # re_sweep replaces a point by a copy of a higher target's point when
        # that rates better; a copy is a point no re_boundary_point returned
        self.counts["carried_points"] += sum(
            id(pt) not in self._sweep_points for pt in boundary.points
        )
        self._sweep_points.clear()

    def _on_select(self, args, mode):
        self._pick = (args[0], mode)

    def _on_scheduled_point(self, args, pt):
        self.counts["outer_rounds"] += pt.iterations
        cs, mode = self._pick
        solved = "eh1_id2" if args[0] is cs else "id1_eh2"
        self.counts["fallbacks"] += solved != mode

    def _on_iwf(self, args, res):
        self.counts["iwf_rounds"] += res.iterations
        self.counts["iwf_unconverged"] += not res.converged

    def install(self, package):
        """Wrap every WRAPPED function at each package module attribute that
        holds it.  Returns a callable that restores the originals."""
        hooks = {
            "boundary.solve_p3": self._on_solve_p3,
            "boundary.re_sweep": self._on_sweep,
            "beamformers.iterative_waterfilling": self._on_iwf,
            "scheduling.select_mode": self._on_select,
        }
        modules = [
            m for n, m in sys.modules.items()
            if n.startswith(package.__name__ + ".") and m is not None
        ]
        undo = []
        for mod_name, fn_name, span in WRAPPED:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            for mod in modules:
                if getattr(mod, fn_name, None) is not original:
                    continue
                hook = hooks.get(span)
                if fn_name == "re_boundary_point":
                    from_scheduler = mod.__name__.endswith(".scheduling")
                    hook = self._on_scheduled_point if from_scheduler else self._on_point
                setattr(mod, fn_name, self.wrap(span, original, hook))
                undo.append((mod, fn_name, original))

        def restore():
            for mod, fn_name, original in undo:
                setattr(mod, fn_name, original)

        return restore

    # -- aggregation --------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, t0, t1, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[k]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def layer_metrics(tracer, n_ops, bytes_written):
    """The per-layer metrics, per operation, from one traced phase."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot[name][0] / n_ops if name in tot else 0.0

    def ms(name):
        return 1e3 * tot[name][1] / n_ops if name in tot else 0.0

    def self_ms(name):
        return 1e3 * tot[name][2] / n_ops if name in tot else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    points = calls("boundary.re_boundary_point")
    inner = c["inner_evals"] / n_ops
    m = {
        "boundary.inner_evals": (inner, "count"),
        "boundary.inner_evals_per_point": (ratio(inner, points), "count"),
        "boundary.solve_p3.calls": (calls("boundary.solve_p3"), "count"),
        "boundary.solve_p3.ms": (ms("boundary.solve_p3"), "ms"),
        "boundary.solve_p3.dual_calls": (c["dual_calls"] / n_ops, "count"),
        "boundary.solve_p3.repaired": (c["repaired"] / n_ops, "count"),
        "boundary.us_per_inner_eval": (
            ratio(1e3 * self_ms("boundary.solve_p3"), inner), "us"),
        "boundary.re_sweep.calls": (calls("boundary.re_sweep"), "count"),
        "boundary.re_sweep.self_ms": (self_ms("boundary.re_sweep"), "ms"),
        "boundary.re_boundary_point.calls": (points, "count"),
        "boundary.re_boundary_point.ms": (ms("boundary.re_boundary_point"), "ms"),
        "boundary.re_boundary_point.self_ms": (self_ms("boundary.re_boundary_point"), "ms"),
        "boundary.outer_rounds": (c["outer_rounds"] / n_ops, "count"),
        "boundary.solve_p3_per_point": (ratio(calls("boundary.solve_p3"), points), "count"),
        "boundary.carried_points": (c["carried_points"] / n_ops, "count"),
        "linalg.hermitian_eig.calls": (calls("linalg.hermitian_eig"), "count"),
        "linalg.inv_sqrt_psd.calls": (calls("linalg.inv_sqrt_psd"), "count"),
        "linalg.svd.calls": (calls("linalg.svd"), "count"),
        "beamformers.sler_beam.calls": (calls("beamformers.sler_beam"), "count"),
        "beamformers.sler_beam.ms": (ms("beamformers.sler_beam"), "ms"),
        "beamformers.slnr_beam.calls": (calls("beamformers.slnr_beam"), "count"),
        "beamformers.slnr_beam.ms": (ms("beamformers.slnr_beam"), "ms"),
        "metrics.sler.calls": (calls("metrics.sler"), "count"),
        "scheduling.scheduled_sweep.ms": (ms("scheduling.scheduled_sweep"), "ms"),
        "scheduling.select_mode.calls": (calls("scheduling.select_mode"), "count"),
        "scheduling.select_mode.ms": (ms("scheduling.select_mode"), "ms"),
        "scheduling.fallbacks": (c["fallbacks"] / n_ops, "count"),
        "beamformers.waterfill.calls": (calls("beamformers.waterfill"), "count"),
        "beamformers.waterfill.ms": (ms("beamformers.waterfill"), "ms"),
        "beamformers.iterative_waterfilling.ms": (
            ms("beamformers.iterative_waterfilling"), "ms"),
        "beamformers.iwf_rounds": (c["iwf_rounds"] / n_ops, "count"),
        "beamformers.iwf_unconverged": (c["iwf_unconverged"] / n_ops, "count"),
        "beamformers.eh_eh_optimal.ms": (ms("beamformers.eh_eh_optimal"), "ms"),
        "experiments.run_experiment.ms": (ms("experiments.run_experiment"), "ms"),
        "experiments.self_ms": (self_ms("experiments.run_experiment"), "ms"),
        "experiments.bytes_written": (bytes_written / n_ops, "bytes"),
        "channel.draw_channel_set.ms": (ms("channel.draw_channel_set"), "ms"),
        "channel.channel_digest.ms": (ms("channel.channel_digest"), "ms"),
    }
    return m
