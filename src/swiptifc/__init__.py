"""Rate-energy tradeoffs for the two-user MIMO interference channel with
simultaneous information decoding and RF energy harvesting.

Receivers either decode or harvest; the library evaluates all four mode
assignments, traces the achievable rate-energy boundary of the mixed modes
under several rank-one transmit strategies, and checks every closed form
against independent brute-force oracles.  The oracles and their censuses live
in `swiptifc.oracle`, which the package does not import.
"""

__version__ = "0.1.0"

from .exceptions import (
    ChannelFormatError,
    DegenerateChannelError,
    InfeasibleTargetError,
    InvalidInputError,
    InvariantViolationError,
    SingularMatrixError,
    SwiptError,
)
from .linalg import Tolerances, TOL
from .channel import (
    ChannelSet,
    channel_digest,
    channel_document,
    draw_channel_set,
    load_channels,
    save_channels,
    stacked_channel,
    swap_roles,
)
from .metrics import (
    Beamformer,
    TxCovariance,
    achievable_rate,
    canonical_beam,
    harvested_energy,
    interference_cov,
    sler,
    slnr,
)
from .beamformers import (
    STRATEGIES,
    IwfResult,
    check_strategy,
    eh_eh_optimal,
    iterative_waterfilling,
    meb,
    meb_rank2,
    mlb,
    sler_beam,
    slnr_beam,
    waterfill,
)
from .boundary import (
    P3Diagnostics,
    REBoundary,
    REPoint,
    emax,
    re_boundary_point,
    re_sweep,
    solve_p3,
    time_sharing_curve,
)
from .scheduling import (
    MODES,
    ModePair,
    ModeTable,
    evaluate_all_modes,
    scheduled_run,
)
from .experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    PRESETS,
    apply_overrides,
    emit_plot_data,
    preset_variants,
    read_plot_data,
    run_experiment,
)

__all__ = [
    "__version__",
    "SwiptError",
    "InvalidInputError",
    "ChannelFormatError",
    "SingularMatrixError",
    "DegenerateChannelError",
    "InfeasibleTargetError",
    "InvariantViolationError",
    "Tolerances",
    "TOL",
    "ChannelSet",
    "draw_channel_set",
    "stacked_channel",
    "swap_roles",
    "channel_document",
    "channel_digest",
    "save_channels",
    "load_channels",
    "TxCovariance",
    "Beamformer",
    "canonical_beam",
    "interference_cov",
    "achievable_rate",
    "harvested_energy",
    "sler",
    "slnr",
    "STRATEGIES",
    "IwfResult",
    "check_strategy",
    "waterfill",
    "iterative_waterfilling",
    "eh_eh_optimal",
    "meb",
    "mlb",
    "meb_rank2",
    "sler_beam",
    "slnr_beam",
    "P3Diagnostics",
    "REPoint",
    "REBoundary",
    "emax",
    "solve_p3",
    "re_boundary_point",
    "re_sweep",
    "time_sharing_curve",
    "MODES",
    "ModePair",
    "ModeTable",
    "scheduled_run",
    "evaluate_all_modes",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "PRESETS",
    "preset_variants",
    "apply_overrides",
    "emit_plot_data",
    "read_plot_data",
    "run_experiment",
]
