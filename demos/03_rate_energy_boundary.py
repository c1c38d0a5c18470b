"""Tracing the rate-energy boundary under the two fixed rank-one beams.

Transmitter 1 beams at the harvesting receiver; transmitter 2 carries the
data.  The maximum-energy beam (top singular vector of the direct harvest
link) reaches the highest energy endpoint, the minimum-leakage beam (least
singular vector of the cross link) protects the decoder.  Between the
extremes the solver backs off transmitter 1's power and re-solves the
energy-constrained rate problem at every target.

Also prints the time-sharing chord between the two ends of the meb sweep:
mixing transmitter-1 silence with full-power beaming in time beats the
always-on curve once the boundary bends far enough.  The chord needs a
sweep on its own grid, whose ends are at target 0 and at e_max; the
shared-grid sweeps above stop at the leakage beam's reach.
"""

import numpy as np

from swiptifc import draw_channel_set, emax, re_sweep, time_sharing_curve

p = 50.0
cs = draw_channel_set(4, 4, [[1.0, 0.8], [0.8, 1.0]], seed=11)

# shared grid up to the leakage beam's reach, so the columns are comparable
grid = np.linspace(0.0, emax(cs, "mlb", p), 9)
curves = {name: re_sweep(cs, name, p, e_grid=grid) for name in ("meb", "mlb")}
print("energy target (W) | meb rate | mlb rate   (bits/channel use)")
for pt_meb, pt_mlb in zip(curves["meb"].points, curves["mlb"].points):
    print(f"{pt_meb.e_bar:17.2f} | {pt_meb.rate_bits:8.4f} | {pt_mlb.rate_bits:8.4f}")
print(f"endpoints: meb reaches {emax(cs, 'meb', p):.2f} W, "
      f"mlb only {curves['mlb'].e_max:.2f} W")

meb_full = re_sweep(cs, "meb", p, n_points=9)
# the flat p1=0 prefix: low targets are covered by decoder-side leakage alone
flat = [pt.e_bar for pt in meb_full.points if pt.p1 <= 1e-9]
print(f"meb keeps transmitter 1 silent up to E={max(flat):.2f} W" if flat else "")

ts = time_sharing_curve(meb_full, weights=np.linspace(0, 1, 5))
print("\ntime sharing (fraction tau beaming at full power):")
for pt in ts.points:
    # p1 is transmitter 1's mean power, tau times the full-power end's
    print(f"  tau={pt.p1 / meb_full.points[-1].p1:4.2f}  E={pt.energy:7.2f} W  "
          f"rate={pt.rate_bits:.4f} bits")
lo, hi = ts.points[0], ts.points[-1]
for pt in meb_full.points:
    if lo.energy < pt.e_bar < hi.energy:
        tau = (pt.e_bar - lo.energy) / (hi.energy - lo.energy)
        chord = (1 - tau) * lo.rate_bits + tau * hi.rate_bits
        if chord > pt.rate_bits:
            print(f"chord beats the sweep at E={pt.e_bar:.2f} W "
                  f"({chord:.4f} vs {pt.rate_bits:.4f} bits)")
            break
