"""Maxwell field sets and their geometric structures across time.

For the time-dependent parallel Beltrami-Maxwell field built on the n=1
torus mode, this script verifies the decomposed Maxwell equations against
the 4-d formulation, then tabulates which structures exist at each instant:
contact forms e and h, stable Hamiltonian pairs (B, e) and (D, h) with
their proportionality factors, and symplectic nondegeneracy of F0, F1.
The degenerate instants k x0 in {0, pi/2} (mod pi) show up as failures.
"""

import math

import numpy as np

import bmkit as bk

M = bk.beltrami_maxwell(bk.t3_mode(n=1, c=1.0), e0=1.0)
grid3 = bk.SampleGrid.regular(M.chart3, 8)
grid4 = grid3.with_time(M.chart4, np.linspace(0, 2 * np.pi, 10, endpoint=False))

r = bk.maxwell_residuals(M, grid4)
print("Maxwell residuals (10^4-point spacetime grid):")
for part, value in r.details["parts"].items():
    print(f"  {part:15s} {value:.2e}")
print("  decomposed vs 4-d agreement:", r.details["decomposed_vs_4d"])

c = bk.constitutive_residuals(M, grid4)
print("constitutive: |D - eps0 *3 e| =", c.details["D_vs_star_e"],
      " |F1 + eps0 * F0| =", c.details["F1_plus_eps0_star_F0"])

print("\nPoynting form e ^ h (parallel fields):",
      bk.parallel_check(M, grid4).max_residual)

# ---------------------------------------------------------------------------
# structure table over one quarter period
# ---------------------------------------------------------------------------
scales = {n: f.max_abs(grid4.points)
          for n, f in (("e", M.e), ("h", M.h), ("B", M.B), ("D", M.D))}
c0, k = M.c0, M.k

print("\n x0        contact(e) contact(h) SHS(B,e) SHS(D,h)   f_B        f_D")
for x0 in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
    sl = M.at_time(x0)
    ce = bk.contact_margin(sl.e, grid3, zero_scale=scales["e"]).passed
    ch = bk.contact_margin(sl.h, grid3, zero_scale=scales["h"]).passed
    be = bk.shs_check(sl.B, sl.e, grid3, zero_scales=(scales["B"], scales["e"]))
    dh = bk.shs_check(sl.D, sl.h, grid3, zero_scales=(scales["D"], scales["h"]))
    fb = be.details.get("f_mean")
    fd = dh.details.get("f_mean")
    print(f" {x0:7.4f}   {str(ce):5s}      {str(ch):5s}      {str(be.passed):5s}"
          f"    {str(dh.passed):5s}   "
          + (f"{fb:+9.4f}" if fb is not None and be.passed else "    --   ")
          + (f"  {fd:+9.4f}" if fd is not None and dh.passed else "      --"))
print("expected factors: f_B = -c0 k / tan(k x0), f_D = -c0 k tan(k x0)")

window = grid3.with_time(M.chart4, np.linspace(0.25, 1.30, 6))
print("\nsymplectic margins on a window avoiding degenerate instants:")
print("  F0:", bk.symplectic_margin(M.F0, window, companion=(M.B, M.e)).min_margin)
print("  F1:", bk.symplectic_margin(M.F1, window, companion=(M.D, M.h)).min_margin)

# ---------------------------------------------------------------------------
# contrasting field sets
# ---------------------------------------------------------------------------
print("\ncontrasts:")
tw = bk.traveling_wave()
g4tw = bk.SampleGrid.regular(tw.chart3, 6).with_time(tw.chart4, [0.3, 1.1])
print("  traveling wave F0^F0 margin (never symplectic):",
      bk.symplectic_margin(tw.F0, g4tw).min_margin)

cf = bk.constant_field()
slc = cf.at_time(0.0)
print("  constant field contact margin (time-independent, no contact):",
      bk.contact_margin(slc.e, bk.SampleGrid.regular(cf.chart3, 6)).min_margin)

pn = bk.parallel_nonbeltrami()
g4pn = bk.SampleGrid.regular(pn.chart3, 6).with_time(pn.chart4, [0.0, 0.9])
print("  parallel-but-not-Beltrami field: e^h residual",
      bk.parallel_check(pn, g4pn).max_residual)

bn = bk.beltrami_nonparallel()
g4bn = bk.SampleGrid.regular(bn.chart3, 6).with_time(bn.chart4, [0.0, 0.9])
print("  Beltrami-but-not-parallel field: max |e^h| =",
      bk.parallel_check(bn, g4bn).max_residual, "(nonzero Poynting form)")
