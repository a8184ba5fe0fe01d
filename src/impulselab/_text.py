"""Byte-stable text emission helpers (fixed float formatting, newline rules)."""

from __future__ import annotations

import sys
from contextlib import contextmanager


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trips exactly)."""
    return format(float(x), ".17g")


@contextmanager
def open_dest(destination):
    """Yield a text handle for a path, '-' (stdout), or an existing handle."""
    if destination == "-":
        yield sys.stdout
    elif hasattr(destination, "write"):
        yield destination
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def write_csv_rows(handle, header, rows) -> None:
    """Write a header list plus iterable of pre-formatted rows, newline-terminated."""
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(row) + "\n")
