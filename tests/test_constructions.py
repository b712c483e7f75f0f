import pytest

from infsurf.constructions import GridPath, snake_bijection
from oracles import ball_size


def test_starts_at_the_origin():
    assert snake_bijection(1).points == ((0, 0),)


def test_first_cells_stay_in_the_unit_ball():
    path = snake_bijection(3)
    for x, y in path.points:
        assert max(abs(x), abs(y)) <= 1 and y >= 0


def test_path_invariants_are_enforced():
    with pytest.raises(ValueError):
        GridPath(((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        GridPath(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        GridPath(((0, 0), (1, 0), (0, 0)))
    with pytest.raises(ValueError):
        snake_bijection(0)


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
