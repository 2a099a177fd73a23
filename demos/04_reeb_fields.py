"""Reeb vector fields: extraction, closed-form oracles, conservation.

The uniform coordinate formula Y = Omega# / (lambda . Omega#) (bk.reeb_field)
is checked against the closed forms sharp(v) / |v|^2 and sharp(v) for every
catalog family, then the electromagnetic Reeb fields Y0 (from (B, e)) and Y1
(from (D, h)) are extracted on a time slice and shown to transport the fields
and energy densities invariantly.  A pair with lambda . Omega# = 0 has no
Reeb field and is refused.
"""

import math

import numpy as np

import bmkit as bk

rng = np.random.default_rng(1)
pts = rng.uniform(0, 2 * np.pi, (500, 3))

# ---------------------------------------------------------------------------
# closed forms vs the uniform formula
# ---------------------------------------------------------------------------
print("uniform formula vs closed forms (max componentwise difference):")


def closed_form(v, variant, x):
    """sharp(v) / |v|^2 (normalized) or sharp(v) (unnormalized) at x."""
    sharp = bk.metric_sharp(v.metric, v.form).evaluate(x)
    return sharp / bk.norm_sq_field(v.metric, v.form)(x)[:, None] \
        if variant == "normalized" else sharp


for v, variant in ((bk.t3_mode(1, 1.0), "normalized"),
                   (bk.t3_mode(2, 1.5), "unnormalized"),
                   (bk.abc_flow(2, 1, 0.5), "normalized")):
    rb = bk.reeb_closed_form_beltrami(v, variant)
    diff = np.max(np.abs(rb.Y.evaluate(pts) - closed_form(v, variant, pts)))
    r_omega, r_lam = rb.normalization_residuals
    print(f"  {v.name:18s} {variant:12s} diff={diff:.2e} "
          f"contracts=({r_omega:.1e}, {r_lam:.1e})")

st_pts = np.stack([rng.uniform(0.1, 1.0, 500),
                   rng.uniform(0, 2 * np.pi, 500),
                   rng.uniform(0, 2 * np.pi, 500)], axis=-1)
for sign in ("minus", "plus"):
    v = bk.solid_torus_mode(2.0, 1.0, sign)
    rb = bk.reeb_closed_form_beltrami(v, "unnormalized",
                                      bk.SampleGrid.regular(v.chart, 8))
    diff = np.max(np.abs(rb.Y.evaluate(st_pts) - closed_form(v, "unnormalized", st_pts)))
    print(f"  solid_torus {sign:5s}  unnormalized diff={diff:.2e}")

# the ABC flow with equal coefficients has stagnation points: refused
try:
    bk.reeb_closed_form_beltrami(bk.abc_flow(1, 1, 1))
except bk.SingularFieldError as exc:
    print("  abc(1,1,1) correctly refused:", str(exc)[:64], "...")

# ---------------------------------------------------------------------------
# electromagnetic Reeb fields on a slice
# ---------------------------------------------------------------------------
M = bk.beltrami_maxwell(bk.t3_mode(1, 1.0), e0=1.0)
x0 = math.pi / 4
y0 = bk.reeb_for_maxwell(M, "Y0", x0)
y1 = bk.reeb_for_maxwell(M, "Y1", x0)
print(f"\nY1 = (f_e/f_h) Y0 componentwise: {bk.reeb_parallel_ratio(M, x0):.2e}")

sl = M.at_time(x0)
grid3 = bk.SampleGrid.regular(M.chart3, 8)
ee, eh = sl.energy_forms()
r0 = bk.conservation_along(y0.Y, [sl.e, sl.B, ee, eh], grid3,
                           ["e", "B", "E_e", "E_h"])
r1 = bk.conservation_along(y1.Y, [sl.h, sl.D, ee, eh], grid3,
                           ["h", "D", "E_e", "E_h"])
print("conserved along Y0:", {k: f"{v:.1e}" for k, v in r0.details["per_form"].items()})
print("conserved along Y1:", {k: f"{v:.1e}" for k, v in r1.details["per_form"].items()})

# degenerate instants hard-error instead of returning garbage
for which, bad_x0 in (("Y0", math.pi / 2), ("Y1", 0.0)):
    try:
        bk.reeb_for_maxwell(M, which, bad_x0)
    except bk.DegenerateInstantError:
        print(f"{which} at k x0 = {bad_x0:.4f}: degenerate instant refused")

# e and B of the circularly polarized wave are orthogonal: no Reeb field
try:
    bk.reeb_for_maxwell(bk.beltrami_nonparallel(), "Y0", x0)
except bk.DegeneratePointError as exc:
    print(f"beltrami_nonparallel Y0: refused, min |lambda . Omega#| / (|lambda| |Omega#|) "
          f"= {exc.margin:.1e}")
