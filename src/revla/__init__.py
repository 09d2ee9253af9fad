"""Checkpoint arithmetic for gradual backbone reversal.

The toolkit has four layers: ``tensor_store`` reads and writes single-file
tensor checkpoints bit-exactly, ``merge`` interpolates them over selected
parameter groups, ``schedule`` turns interpolation into a step-wise reversal
curriculum, and ``toy_lab`` / ``ood_eval`` demonstrate the mechanism
(catastrophic forgetting and its repair) and score evaluation episode logs.
The library is imported from those modules, e.g. ``revla.tensor_store``.
"""

__version__ = "0.1.0"
