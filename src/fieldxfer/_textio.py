"""The text layout of the FDF, QM1 and RHS files: a tag line such as
"FDF 1", a line of counts, then blocks of rows of whitespace-separated
numbers. Floats carry 17 significant digits, so they read back bit-exactly."""

from __future__ import annotations

import inspect
import itertools
import warnings

import numpy as np

from .errors import FormatError


def write_blocks(path, tag, counts, blocks) -> None:
    """Write the tag line, the count line, then each 2-D block row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{tag}\n{' '.join(str(c) for c in counts)}\n")
        for block in blocks:
            fmt = "%d" if np.issubdtype(block.dtype, np.integer) else "%.17g"
            row = " ".join([fmt] * block.shape[1]) + "\n"
            # one % per chunk of under 64k values, not per row; chunks bound memory
            for chunk in np.array_split(block, block.size // 65536 + 1):
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def read_blocks(path, tag, layout) -> list:
    """The blocks of a file written by :func:`write_blocks`, as 2-D arrays.
    ``layout`` takes one parameter per count and returns one ``(rows, cols,
    dtype)`` per block. Malformed content raises :class:`FormatError`."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        # older numpy reads "3.5" into an int block as 3, with only this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            header = fh.readline().split()
            if header[:2] != tag.split():
                raise FormatError(f"{path}: expected {tag!r} header, got {header!r}")
            counts = [int(tok) for tok in fh.readline().split()]
            if len(counts) != len(inspect.signature(layout).parameters):
                raise ValueError(f"expected {inspect.signature(layout)} counts, got {counts}")
            blocks = []
            for rows, cols, dtype in layout(*counts):
                # loadtxt warns on no lines at all, and skips blank ones
                lines = list(itertools.islice(fh, rows))
                block = (np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
                         if lines else np.empty((0, cols), dtype=dtype))
                if block.shape != (rows, cols):  # also when lines are missing or blank
                    raise ValueError(f"block {len(blocks) + 1} has shape {block.shape}, "
                                     f"expected {(rows, cols)}")
                blocks.append(block)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed {tag.split()[0]} content ({exc})") from exc
    return blocks
