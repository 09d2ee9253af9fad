"""Checkpoint arithmetic for gradual backbone reversal.

The toolkit has four layers: ``tensor_store`` reads and writes single-file
tensor checkpoints bit-exactly, ``merge`` interpolates them over selected
parameter groups, ``schedule`` turns interpolation into a step-wise reversal
curriculum, and ``toy_lab`` / ``ood_eval`` demonstrate the mechanism
(catastrophic forgetting and its repair) and score evaluation episode logs.
The library is imported from those modules, e.g. ``revla.tensor_store``.
"""

__version__ = "0.1.0"

# The command line's argument vocabularies, and the text table that both
# ``eval`` and ``lab`` print. They live here, where every command already
# looks for the version, so that building the parser, or a lab's report,
# loads no other library module; ``revla.ood_eval`` and ``revla.schedule``
# re-export the vocabularies.
METRIC_LIFT = "lift"
METRIC_GRASP = "grasp"
METRICS = (METRIC_LIFT, METRIC_GRASP)

MODE_GRADUAL = "gradual"
MODE_FLIP = "flip"
MODES = (MODE_GRADUAL, MODE_FLIP)

VARIANTS = ("D_flip", "D_gradual", "DS_flip", "DS_gradual")


def format_table(rows: list[tuple[str, ...]]) -> str:
    """Left-aligned columns two spaces apart, a dash rule under the header row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
