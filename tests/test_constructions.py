import random
import tracemalloc

import pytest

from infsurf.constructions import MAX_GRID_BOX, GridPath, snake_bijection
from infsurf.homology import ResourceLimit
from oracles import ball_size, best_times, grid_path_revisits, grown_walk, moves_through, snake_cells


def test_starts_at_the_origin():
    assert snake_bijection(1).points == ((0, 0),)


def test_first_cells_stay_in_the_unit_ball():
    path = snake_bijection(3)
    for x, y in path.points:
        assert max(abs(x), abs(y)) <= 1 and y >= 0


def test_path_invariants_are_enforced():
    with pytest.raises(ValueError):
        GridPath(moves_through(((1, 0), (0, 0))))
    with pytest.raises(ValueError):
        GridPath(moves_through(((0, 0), (1, 1))))
    with pytest.raises(ValueError):
        GridPath(moves_through(((0, 0), (1, 0), (0, 0))))
    with pytest.raises(ValueError):
        snake_bijection(0)


def test_a_path_is_its_moves():
    path = GridPath(moves_through(((0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (-1, 2), (-1, 1))))
    assert path == GridPath("RULULD")
    assert path.moves == "RULULD" and len(path) == 7
    assert list(path.cells()) == list(path.points) == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (-1, 2), (-1, 1)]
    assert GridPath("").points == ((0, 0),) and len(GridPath("")) == 1
    # a long straight run and a loop closed only at its far end
    assert len(GridPath("U" * 1000)) == 1001
    with pytest.raises(ValueError, match="revisits"):
        GridPath("R" * 500 + "U" + "L" * 500 + "D")


@pytest.mark.parametrize(
    "moves, revisits",
    [
        ("RRLL", True),  # two runs on one row
        ("UUDD", True),  # two runs on one column
        ("RRRUULDDD", True),  # a column run crossing a row run mid-run
        ("UUURRDLLL", True),  # a row run crossing a column run mid-run
        ("RULD", True),  # back to the origin
        ("RL", True),
        ("LR", True),
        ("UD", True),
        ("DU", True),
        ("RRRUULLDRR", True),  # only the last cell is a revisit
        ("RRRUULLDR", False),
        ("RULLDDRRR", False),  # a spiral round the origin
        ("", False),
    ],
)
def test_each_kind_of_collision_is_a_revisit(moves, revisits):
    assert grid_path_revisits(moves) is revisits
    if revisits:
        with pytest.raises(ValueError, match="grid path revisits a cell"):
            GridPath(moves)
    else:
        assert GridPath(moves).moves == moves


def test_the_check_agrees_with_a_set_of_cells():
    rng = random.Random(2101)
    paths = ["".join(rng.choices("RLUD", k=rng.randint(0, 40))) for _ in range(2500)]
    # runs of one to four equal moves, so that more strings avoid themselves
    paths += ["".join(rng.choice("RLUD") * rng.randint(1, 4) for _ in range(rng.randint(0, 10)))[:40] for _ in range(2500)]
    for _ in range(60):
        walk = grown_walk(rng, 2000)
        paths += [walk] + [walk + move for move in "RLUD"]
    accepted = 0
    for moves in paths:
        if grid_path_revisits(moves):
            with pytest.raises(ValueError, match="grid path revisits a cell"):
                GridPath(moves)
        else:
            assert GridPath(moves).moves == moves
            accepted += 1
    assert 500 < accepted < len(paths) - 500
    assert max(map(len, paths)) == 2001


def test_the_bounding_box_is_bounded():
    assert MAX_GRID_BOX == 1 << 24
    # 4096 x 4096 cells, exactly the budget, for 8 190 moves
    assert len(GridPath("RU" * 4095)) == 8191
    with pytest.raises(ResourceLimit, match="at most 16777216 cells, got 16785409"):
        GridPath("R" * 4096 + "U" * 4096)
    # the type, then the moves, then the box, then the revisits
    with pytest.raises(TypeError):
        GridPath(b"RL")
    with pytest.raises(ValueError, match="not a grid move: 'X'"):
        GridPath("R" * (1 << 24) + "X")
    with pytest.raises(ResourceLimit):
        GridPath("R" * 4096 + "U" * 4096 + "D")
    # refused with neither a bitmap nor a copy of the moves allocated
    moves = "R" * (1 << 24)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="got 16777217"):
            GridPath(moves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_a_path_is_checked_in_time_linear_in_its_runs():
    # a guard: k and 8k repeats of "RRULLU", four runs each, take about 8
    # times as long, and toward 64 times if each run copied the bitmap; at
    # these sizes such a copy measured about 15 times, so the bound is 12
    moves = ["RRULLU" * 1000, "RRULLU" * 8000]
    small, large = best_times([lambda m=m: GridPath(m) for m in moves])
    assert large <= 12 * small, (small, large)


def test_points_match_the_shell_walk():
    reference = snake_cells(2000)
    for n in range(1, 2001):
        assert snake_bijection(n).points == reference[:n], n
    assert snake_bijection(10**5).points == snake_cells(10**5)


def test_a_snake_holds_one_byte_a_cell():
    # 10^5 cells held about 7.2 MB, and peaked at about 14 MB, as a tuple
    # per cell checked through a set of those tuples; the moves checked
    # through a set of ints per cell peaked at about 9 MB
    tracemalloc.start()
    try:
        path = snake_bijection(10**5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(path) == 10**5
    assert held < 1_000_000 and peak < 1_000_000, (held, peak)


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
