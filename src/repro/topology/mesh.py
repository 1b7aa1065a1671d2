"""The paper's mesh topology: a 2-D grid with wraparound.

"A mesh topology is a 2-dimensional grid in which nodes at opposite edges
are connected, so that all nodes are topologically equal" (Section 5.1) —
i.e. a torus. The paper's main runs use 100 nodes (10×10, 200 links).
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.model import Topology, build_adjacency


def mesh_node_name(row: int, col: int) -> str:
    """Canonical node name for grid position ``(row, col)``."""
    return f"m{row:02d}x{col:02d}"


def mesh_topology(rows: int, cols: int) -> Topology:
    """Build a ``rows × cols`` torus.

    Each node connects to its four grid neighbours with wraparound, so
    every node has degree 4 (degree 2 when a dimension has length 2,
    where the wraparound edge coincides with the grid edge).
    """
    if rows < 2 or cols < 2:
        raise TopologyError(f"mesh needs at least 2x2 nodes, got {rows}x{cols}")
    nodes = [mesh_node_name(row, col) for row in range(rows) for col in range(cols)]
    edges = []
    for row in range(rows):
        for col in range(cols):
            here = mesh_node_name(row, col)
            # A length-2 dimension's wraparound edge repeats the grid edge.
            if cols > 2 or col == 0:
                edges.append((here, mesh_node_name(row, (col + 1) % cols)))
            if rows > 2 or row == 0:
                edges.append((here, mesh_node_name((row + 1) % rows, col)))
    return Topology(
        name=f"mesh-{rows}x{cols}",
        adjacency=build_adjacency(nodes, edges),
        metadata={"rows": rows, "cols": cols},
    )
