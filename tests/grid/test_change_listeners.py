"""The occupancy-change notification hook."""

import pytest

from repro.errors import GridError
from repro.geometry import Point, Rect
from repro.grid import RoutingGrid


class Recorder:
    def __init__(self):
        self.cells = []
        self.resets = 0

    def on_cells_changed(self, cells):
        self.cells.extend(cells)

    def on_grid_reset(self):
        self.resets += 1


@pytest.fixture
def grid():
    return RoutingGrid(10, 10)


@pytest.fixture
def recorder(grid):
    rec = Recorder()
    grid.add_change_listener(rec)
    return rec


def test_occupy_notifies(grid, recorder):
    grid.occupy(1, Point(3, 4), 7)
    assert recorder.cells == [(1, 3, 4)]


def test_reoccupy_same_net_is_silent(grid, recorder):
    grid.occupy(0, Point(2, 2), 5)
    grid.occupy(0, Point(2, 2), 5)  # no occupancy change
    assert recorder.cells == [(0, 2, 2)]


def test_release_notifies_only_on_actual_release(grid, recorder):
    grid.occupy(0, Point(1, 1), 3)
    grid.release(0, Point(1, 1), 99)  # wrong owner: no-op
    grid.release(0, Point(1, 1), 3)
    assert recorder.cells == [(0, 1, 1), (0, 1, 1)]


def test_release_net_reports_every_cell(grid, recorder):
    for x in range(3):
        grid.occupy(0, Point(x, 5), 9)
    recorder.cells.clear()
    assert grid.release_net(9) == 3
    assert sorted(recorder.cells) == [(0, 0, 5), (0, 1, 5), (0, 2, 5)]


def test_release_net_reports_row_major_and_spares_others(grid, recorder):
    cells = [(2, 1, 1), (0, 7, 3), (0, 2, 9), (1, 4, 4), (0, 2, 1)]
    for layer, x, y in cells:
        grid.occupy(layer, Point(x, y), 9)
    grid.occupy(1, Point(5, 5), 8)
    recorder.cells.clear()
    assert grid.release_net(9) == len(cells)
    assert recorder.cells == sorted(cells)
    assert all(grid.is_free(l, Point(x, y)) for l, x, y in cells)
    assert grid.owner(1, Point(5, 5)) == 8


def test_release_net_of_absent_net_is_silent(grid, recorder):
    assert grid.release_net(42) == 0
    assert recorder.cells == []


def test_block_signals_bulk_reset(grid, recorder):
    grid.block(0, Rect(2, 2, 5, 5))
    assert recorder.resets == 1


def test_remove_listener_stops_notifications(grid, recorder):
    grid.remove_change_listener(recorder)
    grid.occupy(0, Point(0, 0), 1)
    assert recorder.cells == []


def test_copy_does_not_share_listeners(grid, recorder):
    clone = grid.copy()
    clone.occupy(0, Point(4, 4), 2)
    assert recorder.cells == []


def test_failed_occupy_does_not_notify(grid, recorder):
    grid.occupy(0, Point(6, 6), 1)
    recorder.cells.clear()
    with pytest.raises(GridError):
        grid.occupy(0, Point(6, 6), 2)
    assert recorder.cells == []
