"""Pin the BLAS libraries to one thread before numpy loads.

The tests' matrix products are small, and on a host with few cores the
library's own threads make them slower: one `partitions.horizontal_strips`
transfer at L = 40, cap 4, takes 8.0 ms with OpenBLAS's default threads on
a 2-vCPU host against 0.42 ms with one. This file sits at the root of the
repository because the test run collects `perfbench/tests/` first, and those
tests import numpy. A value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
