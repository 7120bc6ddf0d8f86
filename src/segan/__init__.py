"""Cross-domain segmentation training with self-ensembling and adversarial
output alignment, plus capacity-based generalization bound calculators.

Subpackages of interest:

* :mod:`segan.tensor`   reverse-mode autodiff over dense numpy arrays
* :mod:`segan.networks` segmenter / discriminator / style generator builders
* :mod:`segan.losses`   training objectives
* :mod:`segan.datagen`  synthetic two-domain benchmark
* :mod:`segan.trainer`  training loops and ablation runner
* :mod:`segan.metrics`  IoU reports, transfer gains
* :mod:`segan.bounds`   covering-number / Rademacher / generalization bounds
* :mod:`segan.cli`      ``segan`` command line entry point

Importing the package, before numpy loads, pins OpenBLAS to one thread
unless ``OPENBLAS_NUM_THREADS`` is set: every BLAS call here is a small
matmul, and a second thread doubles a round's CPU time for no wall time.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
