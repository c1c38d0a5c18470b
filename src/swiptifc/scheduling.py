"""Receiver-mode evaluation and SLER-based scheduling.

Four mode pairs exist: both receivers decoding (sum-rate point, zero
energy), both harvesting (max-energy point, zero rate), and the two mixed
orientations.  The mixed orientations are compared through the achievable
signal-to-leakage-and-energy ratios of the two candidate harvesting links:
the transmitter that can push more energy to its harvester while leaking
less onto the decoding receiver wins the harvesting role.  `select_modes`
rates every target of a grid at once.

A scheduled sweep solves each orientation through the strategy context
`boundary` shares per channel orientation: e_max and every target already
solved on that orientation (by `re_sweep`, `re_boundary_point` or an
earlier scheduled sweep) are reused, not solved again.  One lockstep spans
both orientations: `scheduled_run` solves every target that both fixed
orientations' sweeps and the scheduled sweep need in a single lockstep (and
any fallbacks in a second), and `evaluate_all_modes` sweeps both
orientations in one.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .beamformers import eh_eh_optimal, iterative_waterfilling, sler_directions
from .boundary import _N_MAX, REBoundary, _context, _emax_many, _solve_many, re_sweep
from .channel import channel_digest, swap_roles
from .exceptions import InfeasibleTargetError, InvalidInputError, SwiptError
from .linalg import spectral_norm
from .metrics import canonical_directions, check_unit_rows, sler_ratios

__all__ = [
    "MODES",
    "ModePair",
    "ModeTable",
    "sler_pair",
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


def sler_pair(cs, e_bar, p):
    """Best achievable ratios of the two candidate harvesting orientations.

    The first entry rates transmitter 1 harvesting at receiver 1 while
    leaking into receiver 2; the second entry rates the mirrored roles.
    Both beams are found at full transmit power with the same energy target.
    """
    s1, s2 = _orientation_ratios(cs, [e_bar], p)
    return float(s1[0]), float(s2[0])


def select_mode(cs, e_bar, p):
    """Pick the mixed mode with the stronger harvesting orientation.

    Returns "eh1_id2" when the first orientation's ratio is at least the
    second's; ties within 1e-12 relative also go to the first.
    """
    return select_modes(cs, [e_bar], p)[0]


def select_modes(cs, e_bars, p):
    """`select_mode` at every energy target of `e_bars`, as a list of tags.

    Each orientation's beams come from one stacked QR and SVD over all
    targets, and each link's spectral norm is computed once.
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
    """Arrays of `sler_pair`'s two ratios, one entry per energy target."""
    p = float(p)
    if not np.isfinite(p) or p <= 0:
        raise InvalidInputError(f"power must be positive, got {p!r}")
    e_bars = np.array(e_bars, dtype=float).reshape(-1)
    if not np.all(np.isfinite(e_bars) & (e_bars >= 0)):
        raise InvalidInputError("e_bar must be finite nonnegative")
    ratios = []
    for own, cross in ((cs.h11, cs.h21), (cs.h22, cs.h12)):
        floors = np.maximum(e_bars / p - spectral_norm(own) ** 2, 0.0)
        v = canonical_directions(sler_directions(own, cross, floors))
        check_unit_rows(v)
        ratios.append(sler_ratios(v, p, own, cross, e_bars))
    return ratios


def _orientations(cs, strategy, p):
    """The shared strategy contexts of both orientations, by mode tag."""
    return {
        "eh1_id2": _context(cs, strategy, p),
        "id1_eh2": _context(swap_roles(cs), strategy, p),
    }


def _plan(cs, ctxs, p, n_points):
    """The scheduled grid over [0, max e_max], its top, and per target the
    orientations to try in order: `select_modes`' pick, then the other one,
    each only where its e_max reaches the target."""
    if n_points < 2:
        raise InvalidInputError("n_points must be >= 2")
    em1, em2 = _emax_many(list(ctxs.values()))
    em = max(em1, em2)
    grid = np.linspace(0.0, em, n_points)
    slack = 1.0 + 1e-9
    orders = []
    for e_bar, tag in zip(grid, select_modes(cs, grid, p)):
        if tag == "eh1_id2" and e_bar > em1 * slack:
            tag = "id1_eh2"
        elif tag == "id1_eh2" and e_bar > em2 * slack:
            tag = "eh1_id2"
        other = "id1_eh2" if tag == "eh1_id2" else "eh1_id2"
        orders.append(
            [t for t in (tag, other) if e_bar <= (em1 if t == "eh1_id2" else em2) * slack]
        )
    return grid, em, orders


def _solve_plan(ctxs, grid, orders, n_max, jobs=()):
    """Outcome of each (target, orientation) the plan reaches: the first
    choices of both orientations, together with `jobs`, in one lockstep, then
    the fallbacks of first choices that could not reach their target in a
    second."""
    solved = {}
    for choice in (0, 1):
        picks = {
            t: [
                k
                for k, order in enumerate(orders)
                if len(order) > choice
                and order[choice] == t
                and (choice == 0 or isinstance(solved[k, order[0]], InfeasibleTargetError))
            ]
            for t in ctxs
        }
        lead = list(jobs) if choice == 0 else []
        outs = _solve_many(lead + [(ctxs[t], grid[ks]) for t, ks in picks.items()], n_max)
        for (t, ks), got in zip(picks.items(), outs[len(lead):]):
            solved.update(((k, t), out) for k, out in zip(ks, got))
    return solved


def _scheduled_boundary(cs, strategy, grid, em, orders, solved):
    """The scheduled curve and its tags: per target, the first orientation
    of its order that reached it."""
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
                raise copy.copy(out)
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


def scheduled_sweep(cs, p, n_points=64, strategy="sler", n_max=20):
    """Tradeoff sweep with per-target mode selection between orientations.

    One `select_modes` call picks the stronger orientation at every target;
    if the chosen orientation cannot reach a target the other one is used
    instead.  Each orientation is solved through its shared strategy context
    (`boundary._context`), which reuses its e_max and every target already
    solved on it.  Both e_max searches run side by side; the first choices
    of both orientations are solved in one lockstep, and the fallbacks in a
    second.  Returns the boundary and the per-point mode tags.  The curve is
    not validated for rate monotonicity: a mode switch along the grid may
    move the rate in either direction.
    """
    ctxs = _orientations(cs, strategy, p)
    grid, em, orders = _plan(cs, ctxs, p, n_points)
    solved = _solve_plan(ctxs, grid, orders, n_max)
    return _scheduled_boundary(cs, strategy, grid, em, orders, solved)


def scheduled_run(cs, p, n_points=64, strategy="sler", n_max=20):
    """Both fixed orientations' sweeps and the scheduled sweep of one channel.

    Returns (eh1_id2, id1_eh2, scheduled, tags): `re_sweep` of `cs` and of
    `swap_roles(cs)` on their own grids, and `scheduled_sweep`'s boundary and
    tags.  Both e_max searches run side by side, and one lockstep solves
    every target the three curves need (a second one any fallbacks), so the
    curves are then assembled from the shared contexts.
    """
    ctxs = _orientations(cs, strategy, p)
    grid, em, orders = _plan(cs, ctxs, p, n_points)
    own = [(ctx, np.linspace(0.0, ctx.emax(), n_points)) for ctx in ctxs.values()]
    solved = _solve_plan(ctxs, grid, orders, n_max, own)
    sweeps = [
        re_sweep(side, strategy, p, n_points=n_points, n_max=n_max)
        for side in (cs, swap_roles(cs))
    ]
    return (*sweeps, *_scheduled_boundary(cs, strategy, grid, em, orders, solved))


def evaluate_all_modes(cs, p, n_points=64, strategy="sler"):
    """Evaluate every receiver-mode assignment on one channel realization.

    Both-decode runs the water-filling game and reports the sum rate;
    both-harvest uses the closed-form rank-one optimum; the two mixed
    orientations are swept under the given transmitter-1 strategy (the
    mirrored orientation swaps the transmitter/receiver roles), both in one
    lockstep.
    """
    iwf = iterative_waterfilling(cs, p)
    _, _, e_total = eh_eh_optimal(cs, p)
    ctxs = list(_orientations(cs, strategy, p).values())
    # both orientations' grids in one lockstep; the sweeps then reuse them
    _solve_many(
        [(ctx, np.linspace(0.0, em, n_points)) for ctx, em in zip(ctxs, _emax_many(ctxs))],
        _N_MAX,
    )
    return ModeTable(
        id_id=ModePair("id_id", float(sum(iwf.rates)), 0.0),
        eh_eh=ModePair("eh_eh", 0.0, float(e_total)),
        eh1_id2=re_sweep(cs, strategy, p, n_points=n_points),
        id1_eh2=re_sweep(swap_roles(cs), strategy, p, n_points=n_points),
    )
