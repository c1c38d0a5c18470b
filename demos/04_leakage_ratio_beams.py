"""Adaptive beams that trade leakage against the unmet energy target.

The signal-to-leakage-and-energy ratio scores a transmit direction by
harvested signal power over (leakage to the decoder + how far the energy
target still is).  While the target is already met the beam maximizes the
pure signal-to-leakage ratio; as the target grows it bends toward the
maximum-energy direction.  The closed-form beam is checked against the
brute-force generalized-eigenvalue oracle at every step.
"""

import numpy as np

from swiptifc import (
    draw_channel_set,
    meb,
    re_sweep,
    sler,
    sler_beam,
    slnr_beam,
)
from swiptifc.linalg import spectral_norm
from swiptifc.oracle import generalized_eig_max

cs = draw_channel_set(4, 4, [[1.0, 0.8], [0.8, 1.0]], seed=5)
h11, h21 = cs.h11, cs.h21
p1 = 1.0
sig2 = spectral_norm(h11) ** 2
v_meb = meb(h11, p1).v
v_slnr = slnr_beam(h11, h21, p1).v

print("target (x p1*|H11|^2) | ratio (closed form vs oracle) | align to max-energy beam")
for factor in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
    e_bar = factor * p1 * sig2
    beam = sler_beam(h11, h21, e_bar, p1)
    achieved = sler(beam, h11, h21, e_bar)
    floor = max(e_bar - p1 * sig2, 0.0)
    oracle, _ = generalized_eig_max(
        p1 * h11.conj().T @ h11, p1 * h21.conj().T @ h21 + floor * np.eye(4)
    )
    align = abs(np.vdot(beam.v, v_meb))
    print(f"{factor:21.1f} | {achieved:12.4f} vs {oracle:8.4f} | {align:.4f}")
zero_align = abs(np.vdot(sler_beam(h11, h21, 0.0, p1).v, v_slnr))
print(f"(zero-target beam vs the noise-aware slnr beam: align {zero_align:.4f}; "
      "the noise floor in the denominator is all that separates them)")

# on the full boundary the adaptive beam is re-derived at every backed-off power
p = 50.0
for name in ("slnr", "sler", "meb"):
    bd = re_sweep(cs, name, p, n_points=9)
    mid = bd.points[len(bd.points) // 2]
    print(f"{name:5s} sweep: endpoint {bd.e_max:7.2f} W, "
          f"midpoint rate {mid.rate_bits:.4f} bits at E={mid.e_bar:.2f} W")
