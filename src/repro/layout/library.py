"""Library: a named collection of cells with physical units."""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.layout.cell import Cell


class Library:
    """A collection of uniquely named cells plus unit metadata.

    Attributes:
        name: library name (GDSII ``LIBNAME``).
        unit: size of one user unit in metres (1e-6 = µm, the default).
        precision: size of one database unit in metres (1e-9 = nm).
    """

    __slots__ = ("name", "unit", "precision", "cells")

    def __init__(
        self,
        name: str = "LIB",
        unit: float = 1e-6,
        precision: float = 1e-9,
    ) -> None:
        if unit <= 0 or precision <= 0:
            raise ValueError("unit and precision must be positive")
        if precision > unit:
            raise ValueError("precision must not exceed unit")
        self.name = name
        self.unit = unit
        self.precision = precision
        self.cells: Dict[str, Cell] = {}

    @property
    def grid(self) -> float:
        """Database unit expressed in user units (the boolean-engine grid)."""
        return self.precision / self.unit

    # -- cell management -----------------------------------------------

    def add(self, *cells: Cell, include_descendants: bool = True) -> "Library":
        """Add cells (and by default their descendants) to the library.

        Raises:
            ValueError: on a name collision with a *different* cell object.
        """
        pending: List[Cell] = list(cells)
        while pending:
            cell = pending.pop()
            existing = self.cells.get(cell.name)
            if existing is not None and existing is not cell:
                raise ValueError(f"cell name collision: {cell.name!r}")
            self.cells[cell.name] = cell
            if include_descendants:
                pending.extend(
                    c for c in cell.children() if self.cells.get(c.name) is not c
                )
        return self

    def new_cell(self, name: str) -> Cell:
        """Create, register and return an empty cell."""
        cell = Cell(name)
        self.add(cell)
        return cell

    def __getitem__(self, name: str) -> Cell:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    # -- hierarchy ---------------------------------------------------------

    def hierarchy_graph(self) -> Dict[str, List[str]]:
        """Parent→children reference map: every library cell maps to the
        names it references, each once, in first-reference order."""
        return {
            name: list(dict.fromkeys(ref.cell.name for ref in cell.references))
            for name, cell in self.cells.items()
        }

    def _walk(self) -> Dict[str, int]:
        """Depth-first walk of the hierarchy: each reached cell's height
        (1 for a leaf), or ``ValueError`` naming the first cycle found.

        Roots are visited in library order and children in reference
        order, so the cycle reported is always the same one.
        """
        graph = self.hierarchy_graph()
        height: Dict[str, int] = {}
        for root in graph:
            if root in height:
                continue
            path = [root]
            on_path = {root}
            stack = [iter(graph[root])]
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                    name = path.pop()
                    on_path.discard(name)
                    height[name] = 1 + max(
                        (height[c] for c in graph.get(name, ())), default=0
                    )
                elif child in on_path:
                    cycle = path[path.index(child) :] + [child]
                    raise ValueError(
                        f"reference cycle in library: {' -> '.join(cycle)}"
                    )
                elif child not in height:
                    path.append(child)
                    on_path.add(child)
                    stack.append(iter(graph.get(child, ())))
        return height

    def check_acyclic(self) -> None:
        """Raise ``ValueError`` if any reference cycle exists."""
        self._walk()

    def top_cells(self) -> List[Cell]:
        """Cells that are not referenced by any other cell."""
        referenced = {
            ref.cell.name for cell in self.cells.values() for ref in cell.references
        }
        return [cell for name, cell in self.cells.items() if name not in referenced]

    def top_cell(self) -> Cell:
        """The unique top cell.

        Raises:
            ValueError: if the library has zero or multiple top cells.
        """
        tops = self.top_cells()
        if len(tops) != 1:
            names = [c.name for c in tops]
            raise ValueError(f"expected exactly one top cell, found {names}")
        return tops[0]

    def depth(self) -> int:
        """Longest reference chain (1 for a flat library, 0 for an empty one).

        Raises:
            ValueError: if the hierarchy contains a reference cycle.
        """
        return max(self._walk().values(), default=0)

    def __repr__(self) -> str:
        return (
            f"Library({self.name!r}, cells={len(self.cells)}, "
            f"unit={self.unit:g}, precision={self.precision:g})"
        )
