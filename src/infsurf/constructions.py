"""Combinatorial witnesses: the snake enumeration of the half-plane grid.

The strip-to-grid homeomorphism only needs a bijection from the natural
numbers onto the half-plane grid Z x N that starts at the origin, moves by
unit steps, and fills each sup-norm ball around the origin before leaving
it.  The path below walks the square shells outward, alternating direction,
so the ball of radius r (which has (2r+1)(r+1) cells) is exactly the image
of the first (2r+1)(r+1) indices.

A path is its moves: a string over ``R L U D`` (+x, -x, +y, -y) read from
the origin, one byte a cell.  The cells are derived from the moves when
they are asked for.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator

from ._value import Value
from .homology import ResourceLimit

MAX_SNAKE_CELLS = 500_000
"""Most cells ``snake_bijection`` enumerates.

A path holds one byte a cell and its check one int a cell in a set; text
output is written in blocks, while ``--json`` builds a tuple a cell.  At
the bound a CLI call, printing included, takes about 0.3 s and 50 MB of
peak RSS as text, and 0.6 s and 83 MB with ``--json`` (Python 3.11,
shared 2-vCPU VM).
"""

_DX = {"R": 1, "L": -1, "U": 0, "D": 0}
_DY = {"R": 0, "L": 0, "U": 1, "D": -1}
_MOVE_OF = {(dx, _DY[m]): m for m, dx in _DX.items()}
_DROP_MOVES = str.maketrans("", "", "RLUD")


class GridPath(Value):
    """A path of unit steps on Z x Z from the origin that visits no cell twice."""

    __slots__ = ("moves",)

    def __init__(self, moves: str) -> None:
        if not isinstance(moves, str):
            raise TypeError(f"grid path moves are a str, got {type(moves).__name__}")
        bad = moves.translate(_DROP_MOVES)
        if bad:
            raise ValueError(f"not a grid move: {bad[0]!r}")
        # the cell (x, y) is the int x*k + y: |y| <= len(moves) < k/2, so
        # distinct cells give distinct ints
        k = 2 * len(moves) + 3
        step = {"R": k, "L": -k, "U": 1, "D": -1}
        if len(set(accumulate(map(step.__getitem__, moves), initial=0))) <= len(moves):
            raise ValueError("grid path revisits a cell")
        object.__setattr__(self, "moves", moves)

    @classmethod
    def from_points(cls, points) -> GridPath:
        """The path through ``points``, a sequence of (x, y) cells."""
        if not points:
            raise ValueError("a grid path has at least one cell")
        if points[0] != (0, 0):
            raise ValueError("a grid path starts at the origin")
        moves = []
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            move = _MOVE_OF.get((x1 - x0, y1 - y0))
            if move is None:
                raise ValueError(f"non-adjacent step {(x0, y0)} -> {(x1, y1)}")
            moves.append(move)
        return cls("".join(moves))

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
