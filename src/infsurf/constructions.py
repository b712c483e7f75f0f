"""Combinatorial witnesses: the snake enumeration of the half-plane grid.

The strip-to-grid homeomorphism only needs a bijection from the natural
numbers onto the half-plane grid Z x N that starts at the origin, moves by
unit steps, and fills each sup-norm ball around the origin before leaving
it.  The path below walks the square shells outward, alternating direction,
so the ball of radius r (which has (2r+1)(r+1) cells) is exactly the image
of the first (2r+1)(r+1) indices.
"""

from __future__ import annotations

from ._value import Value
from .homology import ResourceLimit

MAX_SNAKE_CELLS = 500_000
"""Most cells ``snake_bijection`` enumerates.

A path holds a tuple per cell and is checked cell by cell, so the bound
keeps a CLI call, printing included, within about a second and a few
hundred MB.
"""


class GridPath(Value):
    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[int, int], ...]) -> None:
        if not points:
            raise ValueError("a grid path has at least one cell")
        if points[0] != (0, 0):
            raise ValueError("a grid path starts at the origin")
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if abs(x1 - x0) + abs(y1 - y0) != 1:
                raise ValueError(f"non-adjacent step {(x0, y0)} -> {(x1, y1)}")
        if len(set(points)) != len(points):
            raise ValueError("grid path revisits a cell")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)


def _shell(radius: int) -> list[tuple[int, int]]:
    """Cells at sup-norm distance exactly `radius`, ordered along the walk.

    Odd shells run bottom-right, up, across and down to the bottom-left;
    even shells run the mirror image, so consecutive shells stay adjacent.
    """
    r = radius
    start = r if r % 2 else -r
    column_up = [(start, y) for y in range(0, r + 1)]
    top = [(x, r) for x in (range(start - 1, -start - 1, -1) if start > 0 else range(start + 1, -start + 1))]
    column_down = [(-start, y) for y in range(r - 1, -1, -1)]
    return column_up + top + column_down


def snake_bijection(count: int) -> GridPath:
    """First `count` cells of the shell-filling enumeration of Z x N."""
    if count < 1:
        raise ValueError("count must be positive")
    if count > MAX_SNAKE_CELLS:
        raise ResourceLimit(f"a snake path has at most {MAX_SNAKE_CELLS} cells, got {count}")
    cells: list[tuple[int, int]] = [(0, 0)]
    radius = 1
    while len(cells) < count:
        cells.extend(_shell(radius))
        radius += 1
    return GridPath(tuple(cells[:count]))
