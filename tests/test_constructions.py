import tracemalloc

import pytest

from infsurf.constructions import GridPath, snake_bijection
from oracles import ball_size, snake_cells


def test_starts_at_the_origin():
    assert snake_bijection(1).points == ((0, 0),)


def test_first_cells_stay_in_the_unit_ball():
    path = snake_bijection(3)
    for x, y in path.points:
        assert max(abs(x), abs(y)) <= 1 and y >= 0


def test_path_invariants_are_enforced():
    with pytest.raises(ValueError):
        GridPath.from_points(((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        GridPath.from_points(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        GridPath.from_points(((0, 0), (1, 0), (0, 0)))
    with pytest.raises(ValueError):
        snake_bijection(0)


def test_a_path_is_its_moves():
    path = GridPath.from_points(((0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (-1, 2), (-1, 1)))
    assert path == GridPath("RULULD")
    assert path.moves == "RULULD" and len(path) == 7
    assert list(path.cells()) == list(path.points) == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (-1, 2), (-1, 1)]
    assert GridPath("").points == ((0, 0),) and len(GridPath("")) == 1
    # a long straight run and a loop closed only at its far end
    assert len(GridPath("U" * 1000)) == 1001
    with pytest.raises(ValueError, match="revisits"):
        GridPath("R" * 500 + "U" + "L" * 500 + "D")


def test_points_match_the_shell_walk():
    reference = snake_cells(2000)
    for n in range(1, 2001):
        assert snake_bijection(n).points == reference[:n], n
    assert snake_bijection(10**5).points == snake_cells(10**5)


def test_a_snake_holds_one_byte_a_cell():
    # 10^5 cells held about 7.2 MB, and peaked at about 14 MB, as a tuple
    # per cell checked through a set of those tuples
    tracemalloc.start()
    try:
        path = snake_bijection(10**5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path) == 10**5
    assert held < 1_000_000 and peak < 12_000_000, (held, peak)


def test_brute_force_properties_up_to_ten_thousand():
    count = 10_000
    path = snake_bijection(count)
    points = path.points
    assert len(points) == count
    assert points[0] == (0, 0)
    seen = set()
    for p in points:
        assert p not in seen
        seen.add(p)
        assert p[1] >= 0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        assert abs(x1 - x0) + abs(y1 - y0) == 1
    # each complete sup-norm ball is filled before the path leaves it
    r = 0
    while ball_size(r) <= count:
        prefix = set(points[: ball_size(r)])
        ball = {(x, y) for x in range(-r, r + 1) for y in range(0, r + 1)}
        assert prefix == ball
        r += 1
    assert ball_size(r) > count
