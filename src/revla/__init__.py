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
import threading
from pathlib import Path

__version__ = "0.1.0"

# The command line's argument vocabularies, the text table that both ``eval``
# and ``lab`` print, and the check of an output path, which returns its writer.
# They live here, where every command already looks for the version, so that
# building the parser, or a lab's report, loads no other library module;
# ``revla.ood_eval`` and ``revla.schedule`` re-export the vocabularies.
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


def check_output(path, inputs=(), *, renamed=False):
    """Fail, naming only ``path``, on a directory, a refused name, a missing directory or one of ``inputs``.

    Return the one function that writes ``path``, from chunks: ``bytes``, or a function that copies its
    part into the open file it is given. The file is written whole to a new file renamed over ``path``,
    or in place if ``path`` is a link or not a regular file. A ``renamed`` output is always renamed:
    it replaces a link, even to a directory, and fails here on a FIFO, device or socket. Given a
    ``staged`` list, the function leaves a new file at its temporary name, for ``write_together``."""
    try:
        if stat.S_ISDIR((os.lstat if renamed else os.stat)(path).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    except FileNotFoundError:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path)) from None
    if renamed and os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        raise ValueError(f"{str(path)!r} is a FIFO, device or socket, not a file to replace")
    if os.path.exists(path) and any(os.path.exists(i) and os.path.samefile(path, i) for i in inputs):
        raise ValueError(f"output {str(path)!r} is one of the command's inputs")
    in_place = not renamed and (os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path))

    def write(chunks, staged=None) -> None:
        if staged is None:
            return write_together([(write, chunks)])
        if in_place:
            with open(path, "wb") as fh:
                _write_chunks(fh, chunks)
            return
        tmp = Path(path).with_name(f".revla.{os.getpid()}.{threading.get_ident()}.{len(staged)}.tmp")
        with open(tmp, "xb") as fh:
            staged.append((tmp, path))
            _write_chunks(fh, chunks)
    write.in_place = in_place
    return write


def _write_chunks(fh, chunks) -> None:
    for chunk in chunks:
        if callable(chunk):
            fh.flush()  # so the copy lands after every byte written before it
            chunk(fh)
        else:
            fh.write(chunk)


def write_together(writes) -> None:
    """Stage each ``(write, chunks)`` whose output is renamed, then write each in-place one, then rename
    every staged file into place. A failure removes every staged file; one while staging leaves every
    in-place output as it was."""
    staged = []
    try:
        for write, chunks in sorted(writes, key=lambda pair: pair[0].in_place):
            write(chunks, staged)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
