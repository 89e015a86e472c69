"""Desk-scale video salient object detection in float64 numpy.

A minimal reverse-mode tensor library, lightweight non-local attention with
dynamic depthwise filtering, cross-level co-attention, region-contrastive
learning with hard mining, a toy encoder/decoder saliency model with plain
SGD training, a saliency metric suite, and a synthetic moving-shape video
generator with netpbm I/O. Names live in the submodules; the package imports
none of them, so ``salattn.cli`` can pin BLAS threads before numpy loads.
"""

__version__ = "0.1.0"
