"""Spectral accuracy of the circle trapezoid rule.

The node-doubling driver behind every contour integral in the package:
geometric convergence for integrands analytic near the contour, exact
orientation handling, and additivity over unions of circles.
"""

import numpy as np

from pfschur import ContourSpec, circle, circles_around, integrate, integrate2
from pfschur.quadrature import _estimate1, nodes_weights

# a simple pole inside: the answer is the residue
c = circle(1.0)
print("(1/2pi i) oint dz/(z-0.5) over |z|=1:")
for n in (8, 16, 32, 64):
    est = _estimate1(lambda z: 1 / (z - 0.5), nodes_weights(c, n, ()))
    print(f"  {n:3d} nodes -> error {abs(est - 1):.2e}")

val, info = integrate(lambda z: 1 / (z - 0.5), c, tol=1e-12, full_output=True)
print(f"doubling control settles at {info['nodes']} nodes, value {val:.12f}")

# orientation and unions
f = lambda z: 1 / (z - 0.5) + 1 / (z - 3)
u = ContourSpec(circle(0.3, center=0.5).circles + circle(0.3, center=3.0).circles)
print(f"\nunion of circles catches both residues: {integrate(f, u).real:.12f}")
print(f"reversing orientation negates:           {integrate(f, u.reversed()).real:.12f}")

# a tensor-product double integral; the kernels sum their blocks by FFT
# instead (`kernels._Assembly`), and q-extraction needs no contour at all
v = integrate2(lambda z, w: 1 / (z * w), c, c)
print(f"\ndouble integral of 1/(zw) over the unit torus: {v.real:.12f}")

# circles around off-origin points (the Macdonald-operator contours)
pts = [0.3, 0.2]
cc = circles_around(pts, 0.02)
g = lambda z: 1 / ((z - 0.3) * (z - 0.2))
print(f"sum of residues of 1/((z-0.3)(z-0.2)) via tiny circles: "
      f"{integrate(g, cc).real:.6f} (exact 0)")
