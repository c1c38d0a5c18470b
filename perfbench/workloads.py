"""The benchmark's workloads: which configs one run executes, in what order.

One operation is one `experiments.run_experiment(cfg, workers=1)` call on a
single-seed config.  The timed operations of a workload form a fixed list:
operation i draws channel seed i + 1 and takes variant i mod len(variants)
(strategy, coupling level or array size), so every run holds each variant
equally often.  The list is the same in every run because per-channel cost
varies up to 4x between channels; a list drawn from the workload seed
would move op_p50_ms by 9-24% from seed to seed on identical code.  Its length
is fixed by the run length: enough whole cycles to fill `seconds` at the
nominal cost per operation measured on a 2-core Xeon VM.

The workload seed draws the warm-up operation instead: channel seed
SEED_STRIDE * (seed + 1) on variant seed mod len(variants), a channel no
timed list and no other workload seed uses.  Its output is checked like the
timed ones, so every run also checks one channel of its own.
"""

from dataclasses import dataclass

SEED_STRIDE = 10_000
P = 50.0


def _alpha(off):
    return [[1.0, off], [off, 1.0]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple       # config fields that vary op by op, cycled in order
    base: dict            # config fields shared by every op
    nominal_s: float      # typical seconds per operation, sizes the run
    kind: str             # "sweep", "sched" or "modes": what the checks read

    def op_count(self, seconds):
        cycle = len(self.variants)
        cycles = max(1, round(seconds / (self.nominal_s * cycle)))
        # timed channel seeds stay below the first warm-up channel seed
        return min(cycles * cycle, SEED_STRIDE - cycle)

    def _config(self, channel_seed, variant):
        return dict(self.base, p=P, seeds=[channel_seed], **self.variants[variant])

    def configs(self, seconds):
        """Config dicts of the timed operations, in order (no output_dir yet)."""
        n = len(self.variants)
        return [self._config(i + 1, i % n) for i in range(self.op_count(seconds))]

    def warmup(self, seed):
        """Config dict of the warm-up operation of workload seed `seed`."""
        return self._config(SEED_STRIDE * (seed + 1), seed % len(self.variants))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-4x4",
            "small matrices: call overhead in solve_p3 dominates, adaptive beams rebuilt per evaluation",
            tuple({"strategies": [s]} for s in ("meb", "mlb", "slnr", "sler")),
            dict(m_t=4, m_r=4, alpha=_alpha(0.8)),
            0.80,
            "sweep",
        ),
        Workload(
            "sched-2x2",
            "the only workload through scheduling: select_mode at every target, two orientations",
            tuple({"alpha": _alpha(a)} for a in (0.7, 1.0)),
            dict(m_t=2, m_r=2, strategies=["sler"], scheduling=True),
            2.3,
            "sched",
        ),
        Workload(
            "modes-table",
            "bypasses boundary: iterative water-filling, the all-harvest closed form, CSV writing",
            tuple({"m_t": m, "m_r": m} for m in (2, 4)),
            dict(alpha=_alpha(0.8), strategies=[], modes=["id_id", "eh_eh"]),
            0.025,
            "modes",
        ),
    )
}
