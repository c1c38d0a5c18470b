"""The four receiver mode assignments and their corner operating points.

Each receiver either decodes (ID) or harvests (EH).  Both-decode gives the
sum-rate corner, both-harvest gives the closed-form energy corner, and the
two mixed assignments each trade one user's rate against the other's energy.
"""

import numpy as np

from swiptifc import (
    draw_channel_set,
    eh_eh_optimal,
    harvested_energy,
    iterative_waterfilling,
    re_sweep,
    stacked_channel,
    swap_roles,
)
from swiptifc.linalg import spectral_norm

p = 50.0
cs = draw_channel_set(4, 4, [[1.0, 0.8], [0.8, 1.0]], seed=3)

# both harvest: rank-one beams on the stacked channels, energy in closed form
q1, q2, total = eh_eh_optimal(cs, p)
bound = sum(p * spectral_norm(stacked_channel(cs, tx)) ** 2 for tx in (1, 2))
print(f"EH/EH harvested total {total:.3f} W (closed form {bound:.3f} W)")
print(f"  receiver shares: {harvested_energy(cs, q1, q2, 1):.3f} W "
      f"and {harvested_energy(cs, q1, q2, 2):.3f} W")

# both decode: the water-filling game
game = iterative_waterfilling(cs, p)
print(f"ID/ID sum rate {sum(game.rates):.3f} bits (converged={game.converged})")

# the mixed modes sweep a full tradeoff curve each under the SLER beam (the
# mirrored one swaps the transmitter/receiver roles); show their endpoints
for label, side in (("EH1/ID2", cs), ("ID1/EH2", swap_roles(cs))):
    bd = re_sweep(side, "sler", p, n_points=17)
    first, last = bd.points[0], bd.points[-1]
    print(f"{label}: rate {first.rate_bits:.3f} bits at E={first.e_bar:.1f} W "
          f"down to {last.rate_bits:.3f} bits at E={last.e_bar:.1f} W")
