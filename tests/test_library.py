"""Tests for repro.layout.library."""

import pytest

from repro.layout.cell import Cell
from repro.layout.library import Library


def make_chain(depth: int):
    """A linear hierarchy CHAIN_0 -> CHAIN_1 -> ... of given depth."""
    cells = [Cell(f"CHAIN_{i}") for i in range(depth)]
    for parent, child in zip(cells, cells[1:]):
        parent.instantiate(child, (0, 0))
    cells[-1].add_rectangle(0, 0, 1, 1)
    return cells


class TestUnits:
    def test_defaults_micron_nanometre(self):
        lib = Library()
        assert lib.unit == 1e-6
        assert lib.precision == 1e-9
        assert lib.grid == pytest.approx(1e-3)

    def test_validates_units(self):
        with pytest.raises(ValueError):
            Library(unit=0)
        with pytest.raises(ValueError):
            Library(unit=1e-9, precision=1e-6)


class TestCellManagement:
    def test_add_includes_descendants(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        assert len(lib) == 3
        assert "CHAIN_2" in lib

    def test_add_rejects_name_collision(self):
        lib = Library()
        lib.add(Cell("X"))
        with pytest.raises(ValueError, match="collision"):
            lib.add(Cell("X"))

    def test_add_same_object_idempotent(self):
        lib = Library()
        cell = Cell("X")
        lib.add(cell)
        lib.add(cell)
        assert len(lib) == 1

    def test_new_cell(self):
        lib = Library()
        cell = lib.new_cell("FRESH")
        assert lib["FRESH"] is cell

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            Library()["NOPE"]


class TestHierarchy:
    def test_top_cells(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        tops = lib.top_cells()
        assert [c.name for c in tops] == ["CHAIN_0"]
        assert lib.top_cell() is cells[0]

    def test_multiple_tops_raises(self):
        lib = Library()
        lib.add(Cell("A"), Cell("B"))
        with pytest.raises(ValueError, match="one top cell"):
            lib.top_cell()

    def test_depth(self):
        cells = make_chain(4)
        lib = Library()
        lib.add(cells[0])
        assert lib.depth() == 4

    def test_depth_flat(self):
        lib = Library()
        lib.add(Cell("ONLY"))
        assert lib.depth() == 1

    def test_check_acyclic_passes(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        lib.check_acyclic()

    def test_check_acyclic_detects_cycle(self):
        a, b = Cell("A"), Cell("B")
        a.instantiate(b, (0, 0))
        lib = Library()
        lib.add(a)
        # Introduce the cycle after adding to dodge add()'s traversal.
        b.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match="cycle"):
            lib.check_acyclic()

    def test_hierarchy_graph_edges(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        graph = lib.hierarchy_graph()
        assert "CHAIN_1" in graph["CHAIN_0"]
        assert "CHAIN_2" in graph["CHAIN_1"]
        assert "CHAIN_0" not in graph["CHAIN_2"]


def make_diamond():
    """TOP references LEFT and RIGHT; both reference the leaf BASE, and
    RIGHT reaches it a second time through MID."""
    top, left, right, mid, base = (
        Cell(n) for n in ("TOP", "LEFT", "RIGHT", "MID", "BASE")
    )
    base.add_rectangle(0, 0, 1, 1)
    top.instantiate(left, (0, 0))
    top.instantiate(right, (5, 0))
    left.instantiate(base, (0, 0))
    right.instantiate(base, (0, 0))
    right.instantiate(mid, (0, 2))
    mid.instantiate(base, (0, 0))
    return top, left, right, mid, base


class TestHierarchyWalk:
    """The stdlib depth-first walk behind ``check_acyclic``,
    ``top_cells`` and ``depth``."""

    def test_graph_lists_each_child_once_in_reference_order(self):
        top, left, right, mid, base = make_diamond()
        top.instantiate(left, (9, 9))
        lib = Library()
        lib.add(top)
        graph = lib.hierarchy_graph()
        assert graph["TOP"] == ["LEFT", "RIGHT"]
        assert graph["RIGHT"] == ["BASE", "MID"]
        assert graph["BASE"] == []
        assert set(graph) == {"TOP", "LEFT", "RIGHT", "MID", "BASE"}

    def test_two_cell_cycle_message(self):
        a, b = Cell("A"), Cell("B")
        a.instantiate(b, (0, 0))
        lib = Library()
        lib.add(a)
        b.instantiate(a, (0, 0))
        with pytest.raises(ValueError) as excinfo:
            lib.check_acyclic()
        assert str(excinfo.value) == "reference cycle in library: A -> B -> A"

    def test_three_cell_cycle_below_the_root(self):
        root, a, b, c = (Cell(n) for n in ("ROOT", "A", "B", "C"))
        root.instantiate(a, (0, 0))
        a.instantiate(b, (0, 0))
        b.instantiate(c, (0, 0))
        lib = Library()
        lib.add(root)
        c.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match=r"library: A -> B -> C -> A$"):
            lib.check_acyclic()
        with pytest.raises(ValueError, match="cycle"):
            lib.depth()

    def test_self_reference_is_a_cycle(self):
        a = Cell("A")
        lib = Library()
        lib.add(a)
        a.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match=r"library: A -> A$"):
            lib.check_acyclic()

    def test_top_cells_keep_library_order(self):
        chain = make_chain(2)
        lib = Library()
        lib.add(Cell("Z"), include_descendants=False)
        lib.add(chain[0])
        lib.add(Cell("A"))
        assert [c.name for c in lib.top_cells()] == ["Z", "CHAIN_0", "A"]

    def test_depth_of_chains(self):
        for n in (1, 2, 5):
            lib = Library()
            lib.add(make_chain(n)[0])
            assert lib.depth() == n

    def test_depth_of_diamond_is_longest_path(self):
        lib = Library()
        lib.add(make_diamond()[0])
        lib.check_acyclic()
        assert [c.name for c in lib.top_cells()] == ["TOP"]
        # TOP -> RIGHT -> MID -> BASE, not the shorter TOP -> LEFT -> BASE.
        assert lib.depth() == 4

    def test_shared_subtree_is_not_a_cycle(self):
        top, left, right, mid, base = make_diamond()
        lib = Library()
        # BASE first: the walk meets it again from every parent.
        lib.add(base, mid, right, left, top)
        lib.check_acyclic()
        assert lib.depth() == 4

    def test_empty_library(self):
        lib = Library()
        lib.check_acyclic()
        assert lib.top_cells() == []
        assert lib.depth() == 0
