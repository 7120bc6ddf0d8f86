"""Settings for the whole test session.

The networks under test are small, so every BLAS call is a small matmul.
OpenBLAS's extra worker threads buy nothing at these sizes, and when another
process shares the cores they spin against it. On 2 cores, a 60-iteration
``full`` ablation run took 3.5 s alone with either thread count; two such runs
side by side took 14.9 s each with OpenBLAS's default threads and 3.5-3.9 s
each with one thread, with the same mIoU to the last bit. One thread keeps
the acceptance gate's run time steady on a shared machine.

OpenBLAS reads the variable when numpy loads it, so it is set here, before
any test module imports numpy. A value already in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
