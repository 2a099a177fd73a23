"""Pointwise exterior calculus on coordinate charts.

Builds forms from scalar coefficient fields, then walks through wedge
products, exterior derivatives (analytic and finite-difference), interior
products, Lie derivatives, and Hodge duals on three charts: the flat
3-torus, the solid torus with metric diag(1, r^2, 1), and the Lorentzian
spacetime extension.
"""

import numpy as np

import bmkit as bk

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# charts and forms
# ---------------------------------------------------------------------------
t3 = bk.torus3()
pts = rng.uniform(0, 2 * np.pi, (5, 3))

# v = cos(x3) dx1 + sin(x3) dx2, entered by hand from trigonometric fields
v = bk.make_form(t3, 1, {(0,): bk.wave({2: 1}), (1,): bk.sin_wave({2: 1})})

dv = bk.exterior_derivative(v)
print("dv coefficients at one point:")
for idx in dv.indices:
    print(f"  dx^{idx}: {dv.coefficient(idx)(pts)[0]:+.6f}")

# wedge: v ^ dv is the contact volume; for this v it equals -1 * dx1^dx2^dx3
w = bk.wedge(v, dv)
print("v ^ dv volume coefficient (expect -1):",
      w.coefficient((0, 1, 2))(pts)[0])

# d^2 = 0, analytically and with 4th-order finite differences
f = bk.make_form(t3, 0, {(): bk.sin_wave({0: 1}) * bk.wave({1: 1})})
print("max |d(df)| analytic:", bk.exterior_derivative(bk.exterior_derivative(f)).max_abs(pts))
# the same coefficient behind a plain function has no partials, so d falls back to FD
f_fn = bk.scalar_form(t3, bk.from_function(f.coefficient(())))
ddf_fd = bk.exterior_derivative(bk.exterior_derivative(f_fn))
print("max |d(df)| finite-difference:", ddf_fd.max_abs(pts))

# ---------------------------------------------------------------------------
# interior products and Lie derivatives
# ---------------------------------------------------------------------------
g3 = bk.euclidean_metric(t3)
Y = bk.metric_sharp(g3, v)  # the vector field dual to v
print("i_Y(*3 v) should vanish:",
      bk.interior_product(Y, bk.hodge_star(g3, v)).max_abs(pts))
print("L_Y v (Cartan) should vanish:", bk.lie_derivative(Y, v).max_abs(pts))

flow = bk.lie_derivative_flow(Y, v, pts)
cartan = bk.lie_derivative(Y, v).coefficient_table(pts)
print("Cartan vs flow-pullback difference:", np.max(np.abs(cartan - flow)))

# ---------------------------------------------------------------------------
# Hodge duals: Euclidean, solid torus, Lorentzian
# ---------------------------------------------------------------------------
print("\nEuclidean *3 dx1 =", {idx: c(pts)[0] for idx, c in
                               bk.hodge_star(g3, bk.dx(t3, 0)).coeffs.items()})

st = bk.solid_torus(a=1.0)
gst = bk.solid_torus_metric(st)
p_st = np.array([[0.5, 1.0, 2.0]])
vol = bk.hodge_star(gst, bk.scalar_form(st, 1.0))
print("solid torus *3 1 coefficient at r=0.5 (expect r):",
      vol.coefficient((0, 1, 2))(p_st)[0])

c4 = bk.spacetime(t3)
g4 = bk.lorentzian_product(g3, c4)
p4 = rng.uniform(0, 2 * np.pi, (4, 4))
F = bk.make_form(c4, 2, {(0, 1): bk.wave({2: 1}), (2, 3): bk.sin_wave({1: 1})})
twice = bk.hodge_star(g4, bk.hodge_star(g4, F))
print("Lorentzian ** on a 2-form (expect -F): residual",
      (twice + F).max_abs(p4))

e = bk.dx(c4, 1)
lhs = bk.hodge_star(g4, bk.wedge(e, bk.dx(c4, 0)))
rhs = bk.spatial_hodge(g3, e)
print("*(e ^ dx0) - *3 e residual:", (lhs - rhs).max_abs(p4))
