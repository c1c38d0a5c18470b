"""Switching which receiver harvests, target by target.

With asymmetric channels one orientation of the mixed mode is better at low
energy targets and the other at high ones.  The scheduler scores both at
each target and keeps the winner; the resulting boundary follows the upper
envelope of the two fixed orientations.  Finishes with the experiment
runner writing the same comparison to CSV.
"""

import csv
import tempfile
from pathlib import Path

from swiptifc import (
    ExperimentConfig,
    draw_channel_set,
    run_experiment,
    scheduled_run,
)

p = 50.0
cs = draw_channel_set(2, 2, [[1.0, 1.0], [1.0, 1.0]], seed=12)

# both fixed orientations and the scheduled sweep, from one lockstep
fixed_a, fixed_b, sched, tags = scheduled_run(cs, p, n_points=9)

print("target (W) | scheduled rate | harvesting side")
for pt, tag in zip(sched.points, tags):
    side = "receiver 1" if tag == "eh1_id2" else "receiver 2"
    print(f"{pt.e_bar:10.2f} | {pt.rate_bits:14.4f} | {side}")
if sched.gaps:
    print(f"unreachable targets skipped: {[round(e, 2) for _, e, _ in sched.gaps]}")
print(f"fixed endpoints: {fixed_a.e_max:.2f} W and {fixed_b.e_max:.2f} W; "
      f"scheduled covers {sched.e_max:.2f} W")

# the experiment runner packages this as CSV + a manifest
with tempfile.TemporaryDirectory() as tmp:
    cfg = ExperimentConfig(
        m_t=2,
        m_r=2,
        alpha=[[1.0, 1.0], [1.0, 1.0]],
        p=p,
        strategies=("sler",),
        e_grid_points=9,
        seeds=(12,),
        scheduling=True,
        output_dir=tmp,
    )
    run_experiment(cfg, workers=1)
    for path in sorted(Path(tmp).glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        print(f"{path.name}: {len(rows) - 1} data rows, columns {rows[0][:5]}...")
