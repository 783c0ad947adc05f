"""Test-process setup: one BLAS/OpenMP thread, set before numpy loads.

The solvers call BLAS on short vectors once per time node; extra BLAS
threads only contend for the cores, most of all when test processes run
side by side.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
