"""Electromagnetic field lines: tracing and closed orbits.

Field lines are integral curves of the metric duals sharp(e), sharp(h) at a
fixed instant.  On the 3-torus the frozen-direction flow of the Beltrami-
Maxwell field closes exactly when tan(x3) is rational, with winding numbers
reading off the slope; a survey across seeds finds those closures and
reports "none found within budget" for incommensurate directions.
"""

import math
import os
import tempfile

import numpy as np

import bmkit as bk

M = bk.beltrami_maxwell(bk.t3_mode(n=1, c=1.0), e0=1.0)
Z = bk.field_line_generator(M, "e", x0=0.0)   # = sharp(e) on the slice

# ---------------------------------------------------------------------------
# single traces
# ---------------------------------------------------------------------------
trace = bk.integrate(Z, [0.0, 0.0, 0.0], step=0.01, n_steps=700)
res = bk.detect_closure(trace, tol=1e-5, Y=Z)
print(f"seed (0,0,0): closed={res.closed} period={res.period_estimate:.6f} "
      f"winding={res.winding} (expect 2pi, (1,0,0))")

x3 = math.atan(0.5)
trace = bk.integrate(Z, [0.0, 0.0, x3], step=0.01, n_steps=1500)
res = bk.detect_closure(trace, tol=1e-4, Y=Z)
print(f"seed x3=atan(1/2): closed={res.closed} period={res.period_estimate:.6f} "
      f"winding={res.winding} (expect 2pi sqrt(5), (2,1,0))")

x3 = math.atan(math.sqrt(2.0))
trace = bk.integrate(Z, [0.0, 0.0, x3], step=0.01, n_steps=12000)
res = bk.detect_closure(trace, tol=1e-4, Y=Z)
print(f"seed x3=atan(sqrt 2): closed={res.closed} note={res.note!r} "
      f"best return distance={res.return_distance:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "orbit.csv")
    bk.write_orbit_csv(trace, path)
    n_lines = sum(1 for _ in open(path))
    print(f"orbit CSV written: {n_lines} rows of s, coordinates, winding counters")

# ---------------------------------------------------------------------------
# seed survey
# ---------------------------------------------------------------------------
xy = np.linspace(0, 2 * np.pi, 3, endpoint=False)
x3_values = [0.0, math.atan(0.5), math.atan(math.sqrt(2.0))]
seeds = np.array([[a, b, c] for a in xy for b in xy for c in x3_values])
survey = bk.closed_orbit_survey(Z, seeds, step=0.01, s_max=60.0, tol=1e-4)
print(f"\nsurvey over {len(seeds)} seeds: {survey.n_closed} closed, "
      f"{len(survey.unique_orbits)} distinct orbits, "
      f"fraction {survey.fraction_closed:.2f}")
periods = sorted({round(p, 4) for p in survey.periods})
print("distinct periods:", periods)

# straight non-closed control on R^3
cf = bk.constant_field()
Zc = bk.field_line_generator(cf, "e", 0.0)
sv = bk.closed_orbit_survey(Zc, np.zeros((1, 3)), step=0.01, s_max=20.0, tol=1e-4)
print("constant field on R^3:", sv.results[0].note)
