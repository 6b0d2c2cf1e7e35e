"""Partitions, Schur polynomials, and the free-boundary weight tau.

Walks the combinatorial layer: Young diagrams, conjugation, the shifted
point configuration, and numerical Schur / skew Schur evaluation through
Jacobi-Trudi determinants.
"""

from pfschur import (cauchy_H, conjugate, enumerate_up_to_weight,
                     even_conjugate_subpartitions, point_configuration, schur,
                     skew_schur, tau)

lam = (4, 2, 1)
print(f"lambda = {lam}, conjugate = {conjugate(lam)}")
print(f"shifted points (first 6 rows): {sorted(point_configuration(lam, 6), reverse=True)}")

print(f"\npartitions of weight <= 4, weight-major order:")
print(" ", list(enumerate_up_to_weight(4)))

# even-conjugate subdiagrams drive the free-boundary weight
print(f"\nmu inside {lam} with even conjugate: {even_conjugate_subpartitions(lam)}")

# a specialization is a tuple of values; a union is their concatenation
X = (0.5, 0.3)
print(f"\ns_(2,1) at {list(X)} = {schur((2, 1), X):.6f}")
print(f"s_((3,1)/(1)) at the same point = {skew_schur((3, 1), (1,), X):.6f}")
print(f"tau_(2,1) = sum of skew Schur over even-conjugate mu = {tau((2, 1), X):.6f}")

# the Cauchy sum telescopes to a two-line product
Y = (0.4, 0.2)
total = sum((schur(mu, X) * schur(mu, Y)).real for mu in enumerate_up_to_weight(30, 2))
print(f"\nsum_mu s_mu(X) s_mu(Y), |mu| <= 30 : {total:.12f}")
print(f"prod 1/(1 - x_i y_j)              : {cauchy_H(X, Y).real:.12f}")
