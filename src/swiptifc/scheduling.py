"""Receiver-mode evaluation and SLER-based scheduling.

Four mode pairs exist: both receivers decoding (sum-rate point, zero
energy), both harvesting (max-energy point, zero rate), and the two mixed
orientations.  The mixed orientations are compared through the achievable
signal-to-leakage-and-energy ratios of the two candidate harvesting links:
the transmitter that can push more energy to its harvester while leaking
less onto the decoding receiver wins the harvesting role.
"""

import math
from dataclasses import dataclass

import numpy as np

from .beamformers import eh_eh_optimal, iterative_waterfilling, sler_beam
from .boundary import REBoundary, _solve_targets, _StrategyContext, re_sweep
from .channel import channel_digest, swap_roles
from .exceptions import InfeasibleTargetError, InvalidInputError, SwiptError
from .metrics import sler

__all__ = [
    "MODES",
    "ModePair",
    "ModeTable",
    "sler_pair",
    "select_mode",
    "scheduled_sweep",
    "evaluate_all_modes",
]

MODES = ("id_id", "eh_eh", "eh1_id2", "id1_eh2")

_TIE_REL = 1e-12


@dataclass(frozen=True)
class ModePair:
    """Operating point of one receiver-mode assignment.

    Both-decode carries zero harvested energy; both-harvest carries zero
    rate (a receiver in harvesting mode decodes nothing).
    """

    tag: str
    rate_bits: float
    energy: float

    def __post_init__(self):
        if self.tag not in MODES:
            raise InvalidInputError(f"unknown mode tag {self.tag!r}")
        if self.tag == "id_id" and self.energy != 0.0:
            raise InvalidInputError("both-decode mode harvests no energy")
        if self.tag == "eh_eh" and self.rate_bits != 0.0:
            raise InvalidInputError("both-harvest mode decodes no information")


@dataclass
class ModeTable:
    """All four mode assignments evaluated on one channel realization."""

    id_id: ModePair
    eh_eh: ModePair
    eh1_id2: REBoundary
    id1_eh2: REBoundary


def sler_pair(cs, e_bar, p):
    """Best achievable ratios of the two candidate harvesting orientations.

    The first entry rates transmitter 1 harvesting at receiver 1 while
    leaking into receiver 2; the second entry rates the mirrored roles.
    Both beams are found at full transmit power with the same energy target.
    """
    p = float(p)
    if not np.isfinite(p) or p <= 0:
        raise InvalidInputError(f"power must be positive, got {p!r}")
    e_bar = float(e_bar)
    v1 = sler_beam(cs.h11, cs.h21, e_bar, p)
    v2 = sler_beam(cs.h22, cs.h12, e_bar, p)
    s1 = sler(v1, cs.h11, cs.h21, e_bar)
    s2 = sler(v2, cs.h22, cs.h12, e_bar)
    return s1, s2


def select_mode(cs, e_bar, p):
    """Pick the mixed mode with the stronger harvesting orientation.

    Returns "eh1_id2" when the first orientation's ratio is at least the
    second's; ties within 1e-12 relative also go to the first.
    """
    s1, s2 = sler_pair(cs, e_bar, p)
    if s1 >= s2:
        return "eh1_id2"
    if math.isfinite(s1) and math.isfinite(s2):
        if s2 - s1 <= _TIE_REL * max(abs(s1), abs(s2), 1.0):
            return "eh1_id2"
    return "id1_eh2"


def scheduled_sweep(cs, p, n_points=64, strategy="sler", n_max=20):
    """Tradeoff sweep with per-target mode selection between orientations.

    At each energy target the stronger orientation (by `select_mode`) is
    solved; if the chosen orientation cannot reach the target the other one
    is used instead.  Each orientation's first-choice targets are solved as
    one lockstep batch, and the fallbacks as a second batch.  Returns the
    boundary and the per-point mode tags.  The curve is not validated for
    rate monotonicity: a mode switch along the grid may move the rate in
    either direction.
    """
    if n_points < 2:
        raise InvalidInputError("n_points must be >= 2")
    swapped = swap_roles(cs)
    ctxs = {
        "eh1_id2": _StrategyContext(cs, strategy, p),
        "id1_eh2": _StrategyContext(swapped, strategy, p),
    }
    em1, em2 = ctxs["eh1_id2"].emax(), ctxs["id1_eh2"].emax()
    em = max(em1, em2)
    grid = np.linspace(0.0, em, n_points)
    slack = 1.0 + 1e-9
    orders = []
    for e_bar in grid:
        tag = select_mode(cs, float(e_bar), p)
        if tag == "eh1_id2" and e_bar > em1 * slack:
            tag = "id1_eh2"
        elif tag == "id1_eh2" and e_bar > em2 * slack:
            tag = "eh1_id2"
        other = "id1_eh2" if tag == "eh1_id2" else "eh1_id2"
        orders.append(
            [t for t in (tag, other) if e_bar <= (em1 if t == "eh1_id2" else em2) * slack]
        )
    # outcome of (target, orientation): first choices, then the fallbacks of
    # the first choices that could not reach their target
    solved = {}
    for choice in (0, 1):
        for t, ctx in ctxs.items():
            ks = [
                k
                for k, order in enumerate(orders)
                if len(order) > choice
                and order[choice] == t
                and (choice == 0 or isinstance(solved[k, order[0]], InfeasibleTargetError))
            ]
            for k, out in zip(ks, _solve_targets(ctx, grid[ks], n_max)):
                solved[k, t] = out
    points = []
    tags = []
    gaps = []
    for k, (e_bar, order) in enumerate(zip(grid, orders)):
        pt = None
        err = None
        for t in order:
            out = solved[k, t]
            if isinstance(out, InfeasibleTargetError):
                err = out
                continue
            if isinstance(out, SwiptError):
                raise out
            pt, tag = out, t
            break
        if pt is None:
            gaps.append((k, float(e_bar), str(err)))
            continue
        points.append(pt)
        tags.append(tag)
    boundary = REBoundary(
        points=points,
        strategy=f"{strategy}_sched",
        channel_digest=channel_digest(cs),
        e_max=em,
        seed=cs.seed,
        gaps=gaps,
    )
    return boundary, tags


def evaluate_all_modes(cs, p, n_points=64, strategy="sler"):
    """Evaluate every receiver-mode assignment on one channel realization.

    Both-decode runs the water-filling game and reports the sum rate;
    both-harvest uses the closed-form rank-one optimum; the two mixed
    orientations are swept under the given transmitter-1 strategy (the
    mirrored orientation swaps the transmitter/receiver roles).
    """
    iwf = iterative_waterfilling(cs, p)
    _, _, e_total = eh_eh_optimal(cs, p)
    return ModeTable(
        id_id=ModePair("id_id", float(sum(iwf.rates)), 0.0),
        eh_eh=ModePair("eh_eh", 0.0, float(e_total)),
        eh1_id2=re_sweep(cs, strategy, p, n_points=n_points),
        id1_eh2=re_sweep(swap_roles(cs), strategy, p, n_points=n_points),
    )
