"""Run the suite on one BLAS thread unless the caller chose a count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when NumPy loads, and pytest
loads this file before it imports any test module. Training gives the same
bits at any thread count (tests/test_threads.py checks that in child
processes that set their own count), so the pin changes no result. It
keeps the many small-matrix tests from waiting on BLAS worker threads that
compete with whatever else runs on the machine.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
