"""Combinatorial witnesses: the snake enumeration of the half-plane grid.

The strip-to-grid homeomorphism only needs a bijection from the natural
numbers onto the half-plane grid Z x N that starts at the origin, moves by
unit steps, and fills each sup-norm ball around the origin before leaving
it.  The path below walks the square shells outward, alternating direction,
so the ball of radius r (which has (2r+1)(r+1) cells) is exactly the image
of the first (2r+1)(r+1) indices.

A path is its moves: a string over ``R L U D`` (+x, -x, +y, -y) read from
the origin, one byte a cell.  The cells are derived from the moves when
they are asked for.  A path is checked for revisits on a bitmap of its
bounding box, one byte a cell of the box, marked one maximal run of equal
moves at a time; the box is bounded by ``MAX_GRID_BOX``.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import Iterator

from ._value import Value
from .homology import ResourceLimit

MAX_SNAKE_CELLS = 500_000
"""Most cells ``snake_bijection`` enumerates.

A path holds one byte a cell, and its check one byte a cell of its
bounding box, which for a snake is about its ball: 500 000 bytes at the
bound.  Text and ``--json`` output are both written in blocks.  At the
bound a CLI call, printing included, takes about 0.3 s and peaks at 16 MB
of RSS, as text or with ``--json``; importing the CLI alone peaks at 14 MB
(``ru_maxrss`` of a fresh process, Python 3.11, shared 2-vCPU VM).
"""

MAX_GRID_BOX = 1 << 24
"""Most cells the bounding box of a ``GridPath`` may hold (16 MiB of bitmap).

A path whose box is larger is refused with ``ResourceLimit`` before
anything the size of the path or of its box is allocated.  A box of width
w and height h holds w*h cells, and w + h <= len(moves) + 2, so every path
of at most 8 190 moves fits; a snake of n cells has a box of about n
cells (exactly 500 000 at ``MAX_SNAKE_CELLS``).  A longer path fits only
if it is compact: a straight run of 2^24 moves, or
``"R" * 4096 + "U" * 4096``, is refused.

The check costs one Python step per maximal run of equal moves, plus C
work per cell.  A snake of n cells has about 4*sqrt(n) runs, so its check
is cheap; the dearest paths are compact ones of short runs:
``GridPath("RRULLU" * 166667)`` (10^6 moves, 666 668 runs) takes about
1.0 s, where a set of the cells took 0.15 s (Python 3.11, shared 2-vCPU
VM).  At the bound the bitmap takes 16 MiB: ``GridPath("RU" * 4095)``
peaks at 30 MB of RSS in a fresh process.
"""

_DX = {"R": 1, "L": -1, "U": 0, "D": 0}
_DY = {"R": 0, "L": 0, "U": 1, "D": -1}
_RUNS = re.compile("R+|L+|U+|D+")


class GridPath(Value):
    """A path of unit steps on Z x Z from the origin that visits no cell twice.

    ``GridPath(moves)`` checks, in this order, that ``moves`` is a str
    (TypeError), that each character is a move (ValueError), that the
    path's bounding box holds at most ``MAX_GRID_BOX`` cells
    (``ResourceLimit``), and that no cell is visited twice (ValueError).
    """

    __slots__ = ("moves",)

    def __init__(self, moves: str) -> None:
        if not isinstance(moves, str):
            raise TypeError(f"grid path moves are a str, got {type(moves).__name__}")
        # the bounding box [x0, x1] x [y0, y1], read off the ends of the
        # runs; a gap between two runs, or after the last, is not a move
        x = y = x0 = x1 = y0 = y1 = end = 0
        for run in _RUNS.finditer(moves):
            start, stop = run.span()
            if start != end:
                break
            move = moves[start]
            x += _DX[move] * (stop - start)
            y += _DY[move] * (stop - start)
            if x < x0:
                x0 = x
            elif x > x1:
                x1 = x
            if y < y0:
                y0 = y
            elif y > y1:
                y1 = y
            end = stop
        if end != len(moves):
            raise ValueError(f"not a grid move: {moves[end]!r}")
        w, h = x1 - x0 + 1, y1 - y0 + 1
        if w * h > MAX_GRID_BOX:
            raise ResourceLimit(f"a grid path's bounding box holds at most {MAX_GRID_BOX} cells, got {w * h}")
        # cell (x, y) is byte (y - y0)*w + (x - x0); a run of n moves from
        # cell i marks i+d, ..., i+n*d as one slice, contiguous along a row
        # and of stride w along a column.  The runs are found again rather
        # than kept, as a path of short runs would keep a tuple per run.
        seen = bytearray(w * h)
        i = -y0 * w - x0
        seen[i] = 1
        stride = {"R": 1, "L": -1, "U": w, "D": -w}
        for run in _RUNS.finditer(moves):
            start, stop = run.span()
            d = stride[moves[start]]
            j = i + d * (stop - start)
            cells = slice(i + d, j + 1, d) if d > 0 else slice(j, i, -d)
            if 1 in seen[cells]:
                raise ValueError("grid path revisits a cell")
            seen[cells] = b"\1" * (stop - start)
            i = j
        object.__setattr__(self, "moves", moves)

    def cells(self) -> Iterator[tuple[int, int]]:
        """The (x, y) cells of the path, in order, from the origin."""
        moves = self.moves
        xs = accumulate(map(_DX.__getitem__, moves), initial=0)
        ys = accumulate(map(_DY.__getitem__, moves), initial=0)
        return zip(xs, ys)

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """The cells as a tuple, built on each access."""
        return tuple(self.cells())

    def __len__(self) -> int:
        return len(self.moves) + 1


def snake_bijection(count: int) -> GridPath:
    """First `count` cells of the shell-filling enumeration of Z x N.

    Shell r (the cells at sup-norm distance r) is one step out along the
    x-axis and three runs: up the column, across the top and down the far
    column.  Odd shells start on the right, even shells are the mirror
    image, so each shell ends where the next one starts.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > MAX_SNAKE_CELLS:
        raise ResourceLimit(f"a snake path has at most {MAX_SNAKE_CELLS} cells, got {count}")
    shells: list[str] = []
    length = radius = 0
    while length < count - 1:
        radius += 1
        out, back = ("R", "L") if radius % 2 else ("L", "R")
        shells.append(out + "U" * radius + back * (2 * radius) + "D" * radius)
        length += 4 * radius + 1
    return GridPath("".join(shells)[: count - 1])
