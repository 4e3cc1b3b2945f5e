"""Tests for the gridfield algebra."""

from __future__ import annotations

import pytest

from repro.errors import GridError
from repro.gridfields import (
    Grid,
    GridField,
    OpCost,
    plans_agree,
    regrid_then_restrict,
    regular_grid_2d,
    restrict_then_regrid,
)


class TestGrid:
    def test_regular_grid_cell_counts(self):
        grid = regular_grid_2d(3, 2)
        assert grid.size(0) == 4 * 3  # nodes
        assert grid.size(1) == 3 * 3 + 4 * 2  # h-edges + v-edges
        assert grid.size(2) == 6  # quads

    def test_incidence_node_to_quad(self):
        grid = regular_grid_2d(2, 2)
        # Corner node (0,0) bounds exactly quad (0,0) plus 2 edges.
        up = grid.incident_up(0, (0, 0))
        assert (2, (0, 0)) in up

    def test_leq_partial_order(self):
        grid = regular_grid_2d(2, 2)
        assert grid.leq((0, (0, 0)), (0, (0, 0)))  # reflexive
        assert grid.leq((0, (0, 0)), (2, (0, 0)))
        assert not grid.leq((0, (2, 2)), (2, (0, 0)))

    def test_edge_touches_quad(self):
        grid = regular_grid_2d(2, 1)
        assert grid.leq((1, ("h", 0, 0)), (2, (0, 0)))

    def test_incident_down(self):
        grid = regular_grid_2d(1, 1)
        down = grid.incident_down(2, (0, 0))
        node_cells = [c for d, c in down if d == 0]
        assert len(node_cells) == 4

    def test_union_intersection(self):
        a = Grid()
        a.add_cell(0, "x")
        a.add_cell(0, "y")
        b = Grid()
        b.add_cell(0, "y")
        b.add_cell(0, "z")
        assert a.union(b).cells(0) == {"x", "y", "z"}
        assert a.intersection(b).cells(0) == {"y"}

    def test_subgrid_drops_incidences(self):
        grid = regular_grid_2d(2, 1)
        keep = {
            0: set(grid.cells(0)),
            1: set(grid.cells(1)),
            2: {(0, 0)},
        }
        sub = grid.subgrid(keep)
        assert sub.size(2) == 1
        assert (2, (1, 0)) not in sub.incident_up(0, (1, 0))

    def test_subgrid_unknown_cell(self):
        grid = regular_grid_2d(1, 1)
        with pytest.raises(GridError):
            grid.subgrid({2: {(9, 9)}})

    def test_bad_incidence(self):
        grid = Grid()
        grid.add_cell(1, "e")
        grid.add_cell(0, "n")
        with pytest.raises(GridError):
            grid.add_incidence(1, "e", 0, "n")  # wrong direction


class TestGridField:
    def test_bind_and_read(self):
        grid = regular_grid_2d(2, 2)
        gf = GridField(grid)
        gf.bind_by_function(2, "temp", lambda cell: cell[0] + 10.0 * cell[1])
        assert gf.attribute(2, "temp")[(1, 1)] == 11.0

    def test_bind_must_cover_all_cells(self):
        gf = GridField(regular_grid_2d(2, 1))
        with pytest.raises(GridError):
            gf.bind(2, "temp", {(0, 0): 1.0})

    def test_bind_rejects_unknown_cells(self):
        gf = GridField(regular_grid_2d(1, 1))
        with pytest.raises(GridError):
            gf.bind(2, "temp", {(0, 0): 1.0, (5, 5): 2.0})

    def test_restrict_keeps_matching_cells(self):
        gf = GridField(regular_grid_2d(3, 1))
        gf.bind_by_function(2, "v", lambda cell: float(cell[0]))
        restricted = gf.restrict(2, lambda cell, attrs: attrs["v"] >= 1.0)
        assert restricted.grid.cells(2) == {(1, 0), (2, 0)}
        assert set(restricted.attribute(2, "v")) == {(1, 0), (2, 0)}

    def test_regrid_mean(self):
        fine = GridField(regular_grid_2d(4, 4))
        fine.bind_by_function(2, "v", lambda cell: float(cell[0]))
        coarse = GridField(regular_grid_2d(2, 2))
        assignment = lambda cell: (cell[0] // 2, cell[1] // 2)
        out = fine.regrid(coarse, 2, 2, assignment, "v", aggregate="mean")
        # Cells x in {0,1} -> coarse column 0: mean of {0,1} = 0.5
        assert out.attribute(2, "v")[(0, 0)] == pytest.approx(0.5)
        assert out.attribute(2, "v")[(1, 1)] == pytest.approx(2.5)

    def test_regrid_count_and_default(self):
        fine = GridField(regular_grid_2d(2, 1))
        fine.bind_by_function(2, "v", lambda cell: 1.0)
        coarse = GridField(regular_grid_2d(2, 1))
        out = fine.regrid(
            coarse, 2, 2,
            lambda cell: (0, 0),  # everything lands on one target
            "v", aggregate="count", default=-1.0,
        )
        assert out.attribute(2, "v")[(0, 0)] == 2.0
        assert out.attribute(2, "v")[(1, 0)] == -1.0

    def test_regrid_bad_target(self):
        fine = GridField(regular_grid_2d(1, 1))
        fine.bind_by_function(2, "v", lambda cell: 1.0)
        coarse = GridField(regular_grid_2d(1, 1))
        with pytest.raises(GridError):
            fine.regrid(coarse, 2, 2, lambda cell: (9, 9), "v")

    def test_merge_combines_attributes(self):
        grid = regular_grid_2d(2, 1)
        a = GridField(grid)
        a.bind_by_function(2, "u", lambda cell: 1.0)
        b = GridField(grid)
        b.bind_by_function(2, "w", lambda cell: 2.0)
        merged = a.merge(b)
        assert merged.attribute_names(2) == ["u", "w"]

    def test_unknown_aggregate(self):
        fine = GridField(regular_grid_2d(1, 1))
        fine.bind_by_function(2, "v", lambda cell: 1.0)
        with pytest.raises(GridError):
            fine.regrid(fine, 2, 2, lambda c: c, "v", aggregate="median")


class TestCommutation:
    def _setup(self, nx=8, ny=8, factor=2):
        fine = GridField(regular_grid_2d(nx, ny))
        fine.bind_by_function(
            2, "temp", lambda cell: float(cell[0] * 1.7 + cell[1] * 0.3)
        )
        coarse = GridField(regular_grid_2d(nx // factor, ny // factor))
        assignment = lambda cell: (cell[0] // factor, cell[1] // factor)
        predicate = lambda cell, attrs: cell[0] < (nx // factor) // 2
        return fine, coarse, assignment, predicate

    def test_plans_produce_identical_results(self):
        fine, coarse, assignment, predicate = self._setup()
        naive, _ = regrid_then_restrict(
            fine, coarse, 2, 2, assignment, "temp", predicate
        )
        pushed, _ = restrict_then_regrid(
            fine, coarse, 2, 2, assignment, "temp", predicate
        )
        assert plans_agree(naive, pushed, 2, "temp")

    def test_commuted_plan_cheaper(self):
        fine, coarse, assignment, predicate = self._setup(nx=12, ny=12, factor=3)
        _, naive_cost = regrid_then_restrict(
            fine, coarse, 2, 2, assignment, "temp", predicate
        )
        _, pushed_cost = restrict_then_regrid(
            fine, coarse, 2, 2, assignment, "temp", predicate
        )
        assert pushed_cost.values_aggregated < naive_cost.values_aggregated

    def test_plans_agree_detects_differences(self):
        fine, coarse, assignment, predicate = self._setup()
        naive, _ = regrid_then_restrict(
            fine, coarse, 2, 2, assignment, "temp", predicate
        )
        other, _ = regrid_then_restrict(
            fine, coarse, 2, 2, assignment, "temp",
            lambda cell, attrs: cell[0] >= 2,
        )
        assert not plans_agree(naive, other, 2, "temp")

    def test_cost_merge(self):
        a = OpCost(1, 2, 3)
        b = OpCost(10, 20, 30)
        merged = a.merge(b)
        assert (merged.cells_examined, merged.assignments_evaluated,
                merged.values_aggregated) == (11, 22, 33)
