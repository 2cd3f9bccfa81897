"""Continuous-time transformer with liquid attention.

Attention logits are the state of a gated linear ODE integrated by
explicit Euler under a stability clamp; residual paths can be replaced
by (liquid) hyper-connections. The package ships the model, independent
reference baselines, verification suites for the stability and limit
properties and a desk-scale training harness. Runtime and memory are
measured by ``perfbench/``, outside the package.
"""

import os
import sys

# fluid.pool owns the parallelism, so BLAS gets one thread unless the user
# set a count. BLAS reads the count as numpy loads: after that the variables
# would change nothing but what they report, so they are left as they are,
# and fluid.pool sets the loaded OpenBLAS's count at run time instead
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")
    del var

from fluid.tensor import Tensor, no_grad  # noqa: E402

__all__ = ["Tensor", "no_grad"]
__version__ = "0.1.0"
