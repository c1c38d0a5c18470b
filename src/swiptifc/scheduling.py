"""SLER-based receiver-mode scheduling.

Each receiver either decodes or harvests (`MODES`).  The both-decode and
both-harvest corners are evaluated by the runner (`experiments`); the two
mixed orientations are swept under the SLER beam.  They are compared
through the achievable signal-to-leakage-and-energy ratios of the two
candidate harvesting links: the transmitter that can push more energy to its
harvester while leaking less onto the decoding receiver wins the harvesting
role.  `select_modes` rates every target of a grid at once.

`scheduled_run` is the one scheduled path.  It builds one SLER strategy
context per orientation; the rule reads their factorizations, and
`boundary`'s lockstep solver solves every target that both fixed
orientations' sweeps and the scheduled sweep need in one lockstep (and any
fallbacks the first has not already solved in a second one).  `select_mode`
and `scheduled_sweep` are kept for the benchmark only and are not in
`__all__`.
"""

import numpy as np

from .beamformers import _ratio_directions
from .boundary import (
    REBoundary,
    _emax_many,
    _grid,
    _ratio_consts,
    _reaches,
    _solve_many,
    _StrategyContext,
    _sweep_boundary,
)
from .channel import channel_digest, swap_roles
from .exceptions import InfeasibleTargetError, InvalidInputError, SwiptError
from .linalg import _as_real, _as_reals
from .metrics import _floored_ratios, canonical_directions, check_unit_rows, sler_floor

__all__ = ["MODES", "select_modes", "scheduled_run"]

MODES = ("id_id", "eh_eh", "eh1_id2", "id1_eh2")

_TIE_REL = 1e-12


def select_mode(cs, e_bar, p):
    """`select_modes` at one target.  Not part of the API: kept only because
    the benchmark's traced run (`perfbench/spans.py`) wraps it by name."""
    return select_modes(cs, [e_bar], p)[0]


def select_modes(cs, e_bars, p):
    """Pick, at every energy target of `e_bars`, the mixed mode with the
    stronger harvesting orientation, as a list of tags.

    A tag is "eh1_id2" when the first orientation's ratio is at least the
    second's; ties within 1e-12 relative also go to the first.  Each
    orientation's beams come from one factorization of its cross link
    (`_ratio_consts`) and one stacked `eigh` over all targets.
    """
    p = _as_real(p, "power budget", positive=True)
    return _select([_ratio_consts(cs.h11, cs.h21), _ratio_consts(cs.h22, cs.h12)], p, e_bars)


def _select(links, p, e_bars):
    """`select_modes` on the `_ratio_consts` of both orientations."""
    s1, s2 = _orientation_ratios(links, p, e_bars)
    with np.errstate(invalid="ignore"):
        tie = (
            np.isfinite(s1)
            & np.isfinite(s2)
            & (s2 - s1 <= _TIE_REL * np.maximum(np.maximum(abs(s1), abs(s2)), 1.0))
        )
    return np.where((s1 >= s2) | tie, "eh1_id2", "id1_eh2").tolist()


def _orientation_ratios(links, p, e_bars):
    """Best achievable ratios of the two candidate harvesting orientations,
    as two arrays with one entry per energy target, from their
    `_ratio_consts` (a SLER context's `consts` holds them too).

    The first rates transmitter 1 harvesting at receiver 1 while leaking into
    receiver 2, through the link pair (H11, H21); the second rates the
    mirrored roles, through (H22, H12).  Both beams are found at full
    transmit power P with the same energy target.
    """
    e_bars = _as_reals(e_bars, "e_bar")
    if e_bars.ndim > 1:
        raise InvalidInputError("e_bars must be 1-D")
    e_bars = e_bars.reshape(-1)
    ratios = []
    for c in links:
        floors = sler_floor(c["h11_norm2"], e_bars, p)
        v = canonical_directions(_ratio_directions(c["lam"], c["u"], c["g"], floors))
        check_unit_rows(v)
        ratios.append(_floored_ratios(v, p, c["h11"], c["h21"], floors))
    return ratios


def scheduled_run(cs, p, n_points=64):
    """Both fixed orientations' sweeps and the scheduled sweep of one channel.

    Returns (eh1_id2, id1_eh2, scheduled, tags): the boundaries that
    `re_sweep` builds under the SLER beam for `cs` and for `swap_roles(cs)`
    on their own grids, the scheduled boundary on the grid over [0, max
    e_max], and its per-point mode tags.  The `select_modes` rule, read off
    the run's own two contexts, picks the stronger orientation at every
    scheduled target; where the pick cannot reach a target, the other
    orientation serves it.  Both e_max searches run side by side, and one
    lockstep solves both own grids and every target's first choice; a second
    one solves the fallbacks it has not already solved.  The scheduled curve
    is not validated for rate monotonicity: a mode switch along the grid may
    move the rate in either direction.
    """
    # the SLER strategy contexts of both orientations, by mode tag
    ctxs = {
        "eh1_id2": _StrategyContext(cs, "sler", p),
        "id1_eh2": _StrategyContext(swap_roles(cs), "sler", p),
    }
    grid = _grid(list(ctxs.values()), n_points)
    ems = dict(zip(ctxs, _emax_many(ctxs.values())))
    e_bars = grid.tolist()
    # per target, the orientations to try in order: the pick, then the other
    orders = []
    picks = _select([ctx.consts for ctx in ctxs.values()], ctxs["eh1_id2"].p, grid)
    for e_bar, tag in zip(e_bars, picks):
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

    It also solves both own-grid sweeps.  Not part of the API: kept only
    because the benchmark's traced run (`perfbench/spans.py`) wraps it by
    name.
    """
    return scheduled_run(cs, p, n_points)[2:]
