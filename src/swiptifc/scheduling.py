"""Receiver-mode evaluation and SLER-based scheduling.

Four mode pairs exist: both receivers decoding (sum-rate point, zero
energy), both harvesting (max-energy point, zero rate), and the two mixed
orientations.  The mixed orientations are compared through the achievable
signal-to-leakage-and-energy ratios of the two candidate harvesting links:
the transmitter that can push more energy to its harvester while leaking
less onto the decoding receiver wins the harvesting role.  `select_modes`
rates every target of a grid at once.

Scheduling is SLER only: both orientations are swept under the SLER beam,
the beam behind the rule.  `scheduled_run` is the one scheduled path.  It
builds one strategy context per orientation and passes both to `boundary`'s
lockstep solver, so a single lockstep solves every target that both fixed
orientations' sweeps and the scheduled sweep need (and a second one any
fallbacks the first has not already solved); `scheduled_sweep` is its
scheduled curve.  `evaluate_all_modes` sweeps both orientations in one
lockstep.
"""

from dataclasses import dataclass

import numpy as np

from .beamformers import _ratio_directions, _ratio_factor, eh_eh_optimal, iterative_waterfilling
from .boundary import (
    REBoundary,
    _emax_many,
    _grid,
    _reaches,
    _solve_many,
    _StrategyContext,
    _sweep_boundary,
)
from .channel import channel_digest, swap_roles
from .exceptions import InfeasibleTargetError, InvalidInputError, SwiptError
from .linalg import _as_real, _as_reals, spectral_norm
from .metrics import _floored_ratios, canonical_directions, check_unit_rows, sler_floor

__all__ = [
    "MODES",
    "ModePair",
    "ModeTable",
    "select_mode",
    "select_modes",
    "scheduled_sweep",
    "scheduled_run",
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


def select_mode(cs, e_bar, p):
    """Pick the mixed mode with the stronger harvesting orientation.

    Returns "eh1_id2" when the first orientation's ratio is at least the
    second's; ties within 1e-12 relative also go to the first.
    """
    return select_modes(cs, [e_bar], p)[0]


def select_modes(cs, e_bars, p):
    """`select_mode` at every energy target of `e_bars`, as a list of tags.

    Each orientation's beams come from one factorization of its cross link
    and one stacked `eigh` over all targets, and each direct link's spectral
    norm is computed once, for the beams' floors and the ratios alike.
    """
    s1, s2 = _orientation_ratios(cs, e_bars, p)
    with np.errstate(invalid="ignore"):
        tie = (
            np.isfinite(s1)
            & np.isfinite(s2)
            & (s2 - s1 <= _TIE_REL * np.maximum(np.maximum(abs(s1), abs(s2)), 1.0))
        )
    return np.where((s1 >= s2) | tie, "eh1_id2", "id1_eh2").tolist()


def _orientation_ratios(cs, e_bars, p):
    """Best achievable ratios of the two candidate harvesting orientations,
    as two arrays with one entry per energy target.

    The first rates transmitter 1 harvesting at receiver 1 while leaking into
    receiver 2; the second rates the mirrored roles.  Both beams are found at
    full transmit power with the same energy target.
    """
    p = _as_real(p, "power budget", positive=True)
    e_bars = _as_reals(e_bars, "e_bar").reshape(-1)
    ratios = []
    for own, cross in ((cs.h11, cs.h21), (cs.h22, cs.h12)):
        floors = sler_floor(spectral_norm(own) ** 2, e_bars, p)
        v = canonical_directions(_ratio_directions(*_ratio_factor(own, cross), floors))
        check_unit_rows(v)
        ratios.append(_floored_ratios(v, p, own, cross, floors))
    return ratios


def _orientations(cs, p):
    """The SLER strategy contexts of both orientations, by mode tag."""
    return {
        "eh1_id2": _StrategyContext(cs, "sler", p),
        "id1_eh2": _StrategyContext(swap_roles(cs), "sler", p),
    }


def scheduled_run(cs, p, n_points=64):
    """Both fixed orientations' sweeps and the scheduled sweep of one channel.

    Returns (eh1_id2, id1_eh2, scheduled, tags): the boundaries that
    `re_sweep` builds under the SLER beam for `cs` and for `swap_roles(cs)`
    on their own grids, the scheduled boundary on the grid over [0, max
    e_max], and its per-point mode tags.  One `select_modes` call picks the
    stronger orientation at every scheduled target; where the pick cannot
    reach a target, the other orientation serves it.  Both e_max searches
    run side by side, and one lockstep solves both own grids and every
    target's first choice; a second one solves the fallbacks it has not
    already solved.  The scheduled curve is not validated for rate
    monotonicity: a mode switch along the grid may move the rate in either
    direction.
    """
    ctxs = _orientations(cs, p)
    grid = _grid(list(ctxs.values()), n_points)
    ems = dict(zip(ctxs, _emax_many(ctxs.values())))
    e_bars = grid.tolist()
    # per target, the orientations to try in order: the pick, then the other
    orders = []
    for e_bar, tag in zip(e_bars, select_modes(cs, grid, p)):
        other = "id1_eh2" if tag == "eh1_id2" else "eh1_id2"
        orders.append([t for t in (tag, other) if _reaches(e_bar, ems[t])])
    own = [(ctx, _grid([ctx], n_points)) for ctx in ctxs.values()]
    first = [
        (ctx, [e for e, order in zip(e_bars, orders) if order[:1] == [t]])
        for t, ctx in ctxs.items()
    ]
    solved = _solve_many(own + first)
    fallbacks = [
        (ctx, [
            e for e, order in zip(e_bars, orders)
            if order[1:] == [t]
            and isinstance(solved[ctxs[order[0]], e], InfeasibleTargetError)
            and (ctx, e) not in solved
        ])
        for t, ctx in ctxs.items()
    ]
    solved |= _solve_many(fallbacks)
    points, tags, gaps = [], [], []
    for k, (e_bar, order) in enumerate(zip(e_bars, orders)):
        err = None
        for t in order:
            out = solved[ctxs[t], e_bar]
            if isinstance(out, InfeasibleTargetError):
                err = out
            elif isinstance(out, SwiptError):
                raise out
            else:
                points.append(out)
                tags.append(t)
                break
        else:
            gaps.append((k, e_bar, str(err)))
    scheduled = REBoundary(
        points=points,
        strategy="sler_sched",
        channel_digest=channel_digest(cs),
        e_max=max(ems.values()),
        seed=cs.seed,
        gaps=gaps,
    )
    return (*(_sweep_boundary(ctx, g, solved) for ctx, g in own), scheduled, tags)


def scheduled_sweep(cs, p, n_points=64):
    """`scheduled_run`'s scheduled boundary and its per-point mode tags.

    It also solves both own-grid sweeps; it keeps its name because the
    benchmark's traced run (`perfbench/spans.py`) wraps it by name.
    """
    return scheduled_run(cs, p, n_points)[2:]


def evaluate_all_modes(cs, p, n_points=64):
    """Evaluate every receiver-mode assignment on one channel realization.

    Both-decode runs the water-filling game and reports the sum rate;
    both-harvest uses the closed-form rank-one optimum; the two mixed
    orientations are swept under the SLER beam at transmitter 1 (the
    mirrored orientation swaps the transmitter/receiver roles), both on
    their own grids in one lockstep, as `re_sweep` sweeps each.
    """
    ctxs = list(_orientations(cs, p).values())
    _grid(ctxs, n_points)  # checks n_points, then both e_max searches side by side
    iwf = iterative_waterfilling(cs, p)
    _, _, e_total = eh_eh_optimal(cs, p)
    sweeps = [(ctx, _grid([ctx], n_points)) for ctx in ctxs]
    solved = _solve_many(sweeps)
    eh1_id2, id1_eh2 = (_sweep_boundary(ctx, g, solved) for ctx, g in sweeps)
    return ModeTable(
        id_id=ModePair("id_id", float(sum(iwf.rates)), 0.0),
        eh_eh=ModePair("eh_eh", 0.0, float(e_total)),
        eh1_id2=eh1_id2,
        id1_eh2=id1_eh2,
    )
