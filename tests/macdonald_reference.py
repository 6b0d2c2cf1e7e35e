"""The reference the q-extraction series and the stated-contour quadrature
are tested against: the stated-contour action on Z as its exact residue sum.

`macdonald.iterated_action_Z(qs, X, Y, contour_mode="stated")` integrates
over circles about the x_i alone, which enclose only the simple poles
z_j = x_i, so the integral is a sum over the d-permutations of the x_i (a
repeated x_i vanishes through z_j - z_k) of the residues of the one-variable
factors times the pair factors at those points. `stated_action_Z` takes
that sum from the package's own factors (`_x_poles`, `_regular`, `_pair`);
`kernels.correlation_via_q_extraction` reads its q-coefficients from a
series, without evaluating it.
"""

import math
from itertools import combinations, permutations

from pfschur.macdonald import (ProductFormFunction, _pair, _regular, _x_poles,
                               z_partition)


def stated_action_Z(qs, X, Y):
    """`iterated_action_Z(qs, X, Y, contour_mode="stated")` as its exact
    residue sum; the qs may be numpy arrays, and the result broadcasts."""
    xs = [complex(x) for x in X]
    ys = [complex(y) for y in Y]
    G = ProductFormFunction(ys)
    # Res_{z=x_i} _x_poles(z, q, xs) = (q x_i - x_i) _x_poles(x_i, q, the other x's)
    res = [[(q - 1) * x * _x_poles(x, q, xs[:i] + xs[i + 1:])
            * _regular(x, q, xs, G) for i, x in enumerate(xs)]
           for q in qs]
    total = sum(math.prod(res[j][i] for j, i in enumerate(I))
                * math.prod(_pair(xs[I[j]], xs[I[k]], qs[j], qs[k],
                                  with_boundary=True)
                            for j, k in combinations(range(len(qs)), 2))
                for I in permutations(range(len(xs)), len(qs)))
    return z_partition(xs, ys) * total
