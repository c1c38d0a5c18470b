"""Set-up probe: what every `swiptifc run` pays before its first seed.

Started by run.py in a fresh interpreter.  Imports swiptifc (numpy, scipy),
builds the workload's configs, then prints the CLOCK_MONOTONIC reading at
which the first operation could start.

    python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from swiptifc.experiments import ExperimentConfig  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
configs = [
    ExperimentConfig.from_dict(dict(c, output_dir="."))
    for c in [workload.warmup(int(sys.argv[2]))] + workload.configs(float(sys.argv[3]))
]
print(time.clock_gettime(time.CLOCK_MONOTONIC))
