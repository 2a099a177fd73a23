"""The Beltrami one-form catalog and its eigenvalue identities.

Three families, each satisfying *3 d v = k v with a constant k:
  - torus eigenmodes      (k = -n, constant norm),
  - ABC flows             (k = +1, generally non-constant norm, may vanish),
  - solid-torus Bessel modes (k = -/+ sqrt(beta^2 + k_c^2)).
The residual report also carries the divergence *3 d *3 v, which every
constant-k rotational Beltrami form kills.
"""

import numpy as np

import bmkit as bk

t3_grid = bk.SampleGrid.regular(bk.torus3(), 12)
g3 = bk.euclidean_metric(bk.torus3())

print("torus eigenmodes: *3 dv = -n v")
for n in (1, 2, 3):
    v = bk.t3_mode(n, c=1.0)
    r = bk.beltrami_residual(v.form, v.k_expected, v.metric, t3_grid)
    print(f"  n={n}: residual {r.max_residual:.2e}, "
          f"divergence {r.details['divergence_residual']:.2e}, "
          f"norm^2 margin {v.norm_margin:.3f}")

print("\nABC flows: *3 dv = v")
for A, B, C in ((1, 1, 1), (1, 1, 0), (2, 1, 0.5)):
    v = bk.abc_flow(A, B, C)
    r = bk.beltrami_residual(v.form, 1.0, v.metric, t3_grid)
    tag = "nonsingular" if v.nonsingular else "SINGULAR (has zeros)"
    print(f"  ({A},{B},{C}): residual {r.max_residual:.2e}, {tag}, "
          f"min norm^2 = {v.norm_margin:.2e}")

print("\nsolid-torus Bessel modes: *3 dv = -/+ sqrt(beta^2+k_c^2) v")
st_grid = bk.SampleGrid.regular(bk.solid_torus(a=1.0), 16)
for sign in ("minus", "plus"):
    v = bk.solid_torus_mode(k_c=2.0, beta=1.0, sign=sign)
    r = bk.beltrami_residual(v.form, v.k_expected, v.metric, st_grid)
    print(f"  sign={sign}: k = {v.k_expected:+.6f}, residual {r.max_residual:.2e}")

# wrong-sign control: the residual is |k - k_true| * |v|
v = bk.t3_mode(1, 1.0)
r = bk.beltrami_residual(v.form, +1.0, g3, t3_grid)
print(f"\nwrong-sign control (k=+1 against the n=1 mode): "
      f"residual {r.max_residual:.3f}, pass={r.passed}")

# the embedded Bessel evaluator behind the solid-torus modes
print("\nBessel sanity: J0(0) =", bk.bessel_j(0, 0.0),
      " J1(0) =", bk.bessel_j(1, 0.0))
z0 = 2.404825557695773
print(f"J0 at its first zero {z0}: |J0| < 1e-15: {abs(bk.bessel_j(0, z0)) < 1e-15}")
r = 0.7
h = 1e-6
lhs = ((r + h) * bk.bessel_j(1, 2 * (r + h)) - (r - h) * bk.bessel_j(1, 2 * (r - h))) / (2 * h)
print("d/dr(r J1(2r)) vs 2 r J0(2r), central difference h = 1e-6: |difference| < 1e-9:",
      abs(lhs - 2 * r * bk.bessel_j(0, 2 * r)) < 1e-9)
