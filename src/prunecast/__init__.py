"""Structured prune-then-finetune toolkit for transformer forecasters.

Python runs this file before any ``prunecast.<module>``, so a set
PRUNECAST_THREADS caps the BLAS thread pools here, before numpy loads.
Variables already set are left as they are.
"""

import os

__version__ = "0.1.0"

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

if os.environ.get("PRUNECAST_THREADS"):
    for _var in THREAD_ENV_VARS:
        os.environ.setdefault(_var, os.environ["PRUNECAST_THREADS"])
