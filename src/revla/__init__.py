"""Checkpoint arithmetic for gradual backbone reversal.

The toolkit has four layers: ``tensor_store`` reads and writes single-file
tensor checkpoints bit-exactly, ``merge`` interpolates them over selected
parameter groups, ``schedule`` turns interpolation into a step-wise reversal
curriculum, and ``toy_lab`` / ``ood_eval`` demonstrate the mechanism
(catastrophic forgetting and its repair) and score evaluation episode logs.
The library is imported from those modules, e.g. ``revla.tensor_store``.
"""

import errno
import os
import stat

__version__ = "0.1.0"

# The command line's argument vocabularies, the text table that both ``eval``
# and ``lab`` print, and the check of an output path. They live here, where
# every command already looks for the version, so that building the parser,
# or a lab's report, loads no other library module; ``revla.ood_eval`` and
# ``revla.schedule`` re-export the vocabularies.
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


def check_output(path, inputs=(), *, renamed=False) -> None:
    """Fail, naming only ``path``, on a directory, a refused name or one of ``inputs``; a new name passes.

    A ``renamed`` output replaces a link to a directory, and fails on a FIFO, device or socket."""
    try:
        if stat.S_ISDIR((os.lstat if renamed else os.stat)(path).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    except FileNotFoundError:
        return
    if renamed and os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        raise ValueError(f"{str(path)!r} is a FIFO, device or socket, not a file to replace")
    if os.path.exists(path) and any(os.path.exists(i) and os.path.samefile(path, i) for i in inputs):
        raise ValueError(f"output {str(path)!r} is one of the command's inputs")
