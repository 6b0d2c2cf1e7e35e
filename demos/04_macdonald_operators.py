"""Macdonald difference operators three ways.

The same operator value computed by (a) the literal subset sum with shift
operators, (b) the residue-exact contour formula for product-form functions,
and (c) for iterated one-row actions, contours enriched with shift-image
circles. Also demonstrates the Schur eigenrelation that makes the operators
useful as observable generators.
"""

import numpy as np

from pfschur import (ProductFormFunction, apply_direct, apply_via_contour,
                     eigen_residual, eigenvalue, iterated_action_Z)
from pfschur.macdonald import z_partition

q = 0.4 + 0.1j
xs = [0.5, 0.3]
ys = [0.25, 0.1]

# Schur polynomials diagonalize the operators at t = q
for lam in [(), (1,), (2,), (2, 1)]:
    ev = eigenvalue(lam, 2, 1, 0.3)
    (res,), = eigen_residual([lam], [0.4, 0.2], [1], 0.3)
    print(f"lambda={str(lam):8s} eigenvalue={ev:.6f} residual={res:.1e}")

# direct vs contour on the product form of Z(X; Y): prod_{i<j} 1/(1 - x_i x_j)
# times prod_i g(x_i), with the Cauchy g(x) = prod_y 1/(1 - x y)
G = ProductFormFunction(ys)
for r in (1, 2):
    direct = apply_direct(G, xs, r, q)
    contour = apply_via_contour(G, xs, r, q)
    print(f"\nr={r}: direct  = {direct:.10f}")
    print(f"     contour = {contour:.10f}   |gap| = {abs(direct - contour):.1e}")

# iterated one-row actions: the earlier variable's contour needs circles
# around the shift images q2*x, or the same-variable double shifts are lost
q1, q2 = 0.4 + 0.1j, 0.35 - 0.2j
Zf = lambda v: z_partition(v, [0.25, 0.1])
comp = apply_direct(lambda v: apply_direct(Zf, v, 1, q1), [0.3, 0.2], 1, q2)
good = iterated_action_Z([q1, q2], [0.3, 0.2], [0.25, 0.1])
stated = iterated_action_Z([q1, q2], [0.3, 0.2], [0.25, 0.1], contour_mode="stated")
print(f"\nproduct of two one-row actions on Z(X;Y):")
print(f"  composed direct actions : {comp:.10f}")
print(f"  shift-image contours    : {good:.10f}   |gap| = {abs(comp - good):.1e}")
print(f"  x-circles only          : {stated:.10f}   |gap| = {abs(comp - stated):.1e}"
      "   <- double-shift residues missing")
