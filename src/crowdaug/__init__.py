"""Classifier training from sparse crowd annotations via adversarial augmentation.

Importing the package pins NumPy's BLAS to one thread unless the environment
already says otherwise: OpenBLAS and MKL read their thread count when NumPy is
first imported, and the count moves the last bits of matrix products. The pin
takes effect only when ``crowdaug`` is imported before NumPy; the CLI always
is. With BLAS pinned, the trainer runs its row blocks on two threads of its
own (``trainer._BLOCK_THREADS``), which give the same bits as one.
"""
import os
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_IMPORTED_FIRST = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
BLAS_THREADS = {var: os.environ[var] for var in BLAS_THREAD_VARS}
BLAS_PINNED = not NUMPY_IMPORTED_FIRST and set(BLAS_THREADS.values()) == {"1"}
