"""Verification lab for Pfaffian Schur measures and processes.

Closed-form objects (partition functions, Macdonald difference operator
actions, double-contour Pfaffian correlation kernels) are computed
numerically and cross-checked against brute-force enumeration oracles at
desk scale.

Importing the package pins BLAS to one thread before numpy loads, unless the
environment sets it: threads slow the lab's small matrix products down.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .partitions import (conjugate, enumerate_up_to_weight,
                         even_conjugate_subpartitions, is_even_conjugate,
                         point_configuration)
from .symfunc import H0, DivergenceError, cauchy_H, schur, skew_schur, tau
from .quadrature import (Circle, ContourSpec, QuadratureError, circle,
                         circles_around, integrate, integrate2)
from .pfaffian import SkewMatrix, pfaffian, verify_schur_pfaffian
from .macdonald import (ContourConditionError, ProductFormFunction,
                        apply_direct, apply_via_contour, eigen_residual,
                        eigenvalue, iterated_action_F, iterated_action_Z)
from .measures import (PointSet, ProcessSpec, correlation_oracle,
                       observable_expectation_oracle,
                       partition_function_closed, partition_function_truncated,
                       process_weight, truncation_diagnostic)
from .kernels import (KernelConfig, assemble_kernel, correlation_via_kernel,
                      correlation_via_q_extraction, default_radii, radius_sweep,
                      verify_principal_pfaffian_factorization)

__version__ = "0.1.0"
