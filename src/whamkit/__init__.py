"""whamkit: world-grounded 3D human motion from 2D keypoint sequences.

Synthesizes training data with moving virtual cameras, trains a recurrent
lifting network with contact-aware global-trajectory refinement, and
evaluates camera-frame and world-frame motion metrics.
"""

import os
import sys

# WHAMKIT_THREADS caps BLAS worker threads. Must be applied before numpy is
# imported anywhere in the process, so keep this module free of heavy imports.
_threads = os.environ.get("WHAMKIT_THREADS")
if _threads:
    if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != _threads:
        import warnings
        warnings.warn(f"WHAMKIT_THREADS={_threads} did not take effect: numpy was imported "
                      "before whamkit; import whamkit first or set OPENBLAS_NUM_THREADS",
                      RuntimeWarning)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
