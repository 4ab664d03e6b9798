"""Street network with integer travel times and shortest-path queries.

The network is a directed graph with strictly positive integer edge
times. It is immutable after construction: all query methods are pure
and safe to call from anywhere. Distances live in one store for every
size: a node's row (its times to every node) and its column (every
node's time to it) are each filled by one Dijkstra run the first time a
query needs them, and kept. On a network whose every edge runs both ways
at one time, such as a grid, a node's column is its row and is filled
once. The network also keeps the last path built to each node, at most
one node tuple per node.

A network is a pure function of its definition, so the two shared
constructors, `Network.build_grid` and `Network.from_edge_list`, return
one network per definition for the life of the process: every scenario
on one grid or edge-list text reads and fills one distance store.
`Network(edges)` always builds a new network.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

_INF = None  # sentinel for "unreached" inside Dijkstra scans


class NetworkError(ValueError):
    """Raised for malformed network definitions."""


class UnknownNodeError(KeyError):
    """Raised when a query names a node that is not in the network."""


@dataclass(frozen=True)
class PathResult:
    """A shortest path: total travel time plus the full node sequence."""

    total_time: int
    node_sequence: tuple[int, ...]


def grid_node(width: int, x: int, y: int) -> int:
    """Node id of grid cell (x, y) in a grid of the given width."""
    return y * width + x


class Network:
    """Directed street network over integer node ids.

    Args:
        edges: iterable of (from_node, to_node, travel_time) triples.
            Travel times must be positive integers; parallel edges keep
            the cheapest time. Every node mentioned becomes part of the
            network, and the result must be strongly connected.
    """

    def __init__(self, edges) -> None:
        cheapest: dict[tuple[int, int], int] = {}
        nodes: set[int] = set()
        for item in edges:
            try:
                u, v, t = item
            except (TypeError, ValueError):
                raise NetworkError(f"edge must be a (from, to, time) triple, got {item!r}")
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(t, int)):
                raise NetworkError(f"edge {item!r}: endpoints and time must be integers")
            if u == v:
                raise NetworkError(f"edge {item!r}: self-loops are not allowed")
            if t < 1:
                # zero-time arcs would make the lexicographic path
                # tie-break ill-defined, so they are rejected outright
                raise NetworkError(f"edge {item!r}: travel time must be a positive integer")
            nodes.add(u)
            nodes.add(v)
            key = (u, v)
            if key not in cheapest or t < cheapest[key]:
                cheapest[key] = t
        if not nodes:
            raise NetworkError("network needs at least one edge")

        self._nodes: tuple[int, ...] = tuple(sorted(nodes))
        self._index: dict[int, int] = {n: i for i, n in enumerate(self._nodes)}
        n = len(self._nodes)
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._radj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), t in cheapest.items():
            ui, vi = self._index[u], self._index[v]
            self._adj[ui].append((vi, t))
            self._radj[vi].append((ui, t))
        for rows in (self._adj, self._radj):
            for row in rows:
                row.sort()
        self._edge_count = len(cheapest)
        # rows[i][j] and cols[j][i] both hold the time from node i to node j;
        # when every edge runs both ways at one time, a node's column is its row
        self._rows: list[list[int] | None] = [None] * n
        self._cols: list[list[int] | None] = self._rows if self._adj == self._radj else [None] * n
        # paths[j]: the last path shortest_path built to node j, as node ids
        self._paths: list[tuple[int, ...] | None] = [None] * n
        self._check_strongly_connected()

    # -- construction helpers -------------------------------------------------

    _shared: dict[tuple, "Network"] = {}  # definition -> network, see build_grid

    @classmethod
    def build_grid(cls, width: int, height: int, edge_time: int = 1) -> "Network":
        """Four-connected rectangular grid with bidirectional edges.

        Node ids are row-major: (x, y) -> y * width + x. Equal arguments
        return one shared network for the life of the process. Its store
        holds at most (width * height)^2 distances, kept until the
        process ends.
        """
        key = (cls, width, height, edge_time)
        if key in cls._shared:
            return cls._shared[key]
        if width < 1 or height < 1:
            raise NetworkError("grid dimensions must be at least 1x1")
        if not isinstance(edge_time, int) or edge_time < 1:
            raise NetworkError("grid edge_time must be a positive integer")
        if width * height < 2:
            raise NetworkError("grid needs at least two nodes")
        edges = []
        for y in range(height):
            for x in range(width):
                a = grid_node(width, x, y)
                if x + 1 < width:
                    b = grid_node(width, x + 1, y)
                    edges.append((a, b, edge_time))
                    edges.append((b, a, edge_time))
                if y + 1 < height:
                    b = grid_node(width, x, y + 1)
                    edges.append((a, b, edge_time))
                    edges.append((b, a, edge_time))
        return cls._shared.setdefault(key, cls(edges))

    @classmethod
    def from_edge_list(cls, text: str) -> "Network":
        """Parse an edge-list document: one `from to time` triple per line.

        Blank lines and `#` comments are ignored. Equal texts return one
        shared network for the life of the process. Its store holds at
        most N^2 distances for N nodes, kept until the process ends.
        """
        key = (cls, text)
        if key in cls._shared:
            return cls._shared[key]
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise NetworkError(f"line {lineno}: expected 'from to time', got {raw!r}")
            try:
                u, v, t = (int(p) for p in parts)
            except ValueError:
                raise NetworkError(f"line {lineno}: non-integer field in {raw!r}")
            edges.append((u, v, t))
        return cls._shared.setdefault(key, cls(edges))

    @classmethod
    def load_edge_list(cls, path) -> "Network":
        """`from_edge_list` of the file's text, so a changed file gives a new network."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_edge_list(fh.read())

    def __deepcopy__(self, memo=None) -> "Network":
        # it never changes and its stores cache pure answers, so a copy is
        # the network itself, and a copied state keeps sharing it
        return self

    __copy__ = __deepcopy__

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_node(self, node: int) -> bool:
        return node in self._index

    def travel_time(self, origin: int, destination: int) -> int:
        """Shortest travel time between two nodes; zero when they coincide."""
        try:
            a = self._index[origin]
            b = self._index[destination]
        except KeyError:
            # names the unknown endpoint, as every other query does
            self._require(origin)
            self._require(destination)
            raise
        return (self._rows[a] or self._dist_from(a))[b]

    def travel_times(self, origin: int, destinations) -> list[int]:
        """Shortest travel times from one origin to each destination, in order.

        Reads the origin's row once, so past the row's first Dijkstra it
        costs one lookup per destination.
        """
        index = self._index
        try:
            row = self._dist_from(index[origin])
            return [row[index[node]] for node in destinations]
        except KeyError:
            # names the unknown node, as every other query does
            self._require(origin)
            for node in destinations:
                self._require(node)
            raise

    def shortest_path(self, origin: int, destination: int) -> PathResult:
        """Minimum-time path, breaking ties by smallest node sequence.

        Among all minimum-cost paths the lexicographically smallest node
        sequence is returned, which makes route planning reproducible.
        Each step's next node depends only on the node and the destination,
        so the path from any node on the last path built to the destination
        is that path's suffix, and is returned as such.
        """
        a = self._require(origin)
        b = self._require(destination)
        if a == b:
            return PathResult(0, (origin,))
        dist_to_target = self._dist_to(b)
        last = self._paths[b]
        if last is not None and origin in last:
            return PathResult(dist_to_target[a], last[last.index(origin):])
        seq = [a]
        cur = a
        total = dist_to_target[a]
        while cur != b:
            remaining = dist_to_target[cur]
            # smallest next node that stays on a minimum-cost path
            nxt = None
            for j, t in self._adj[cur]:
                if t + dist_to_target[j] == remaining:
                    nxt = j
                    break
            if nxt is None:  # pragma: no cover - strong connectivity rules this out
                raise NetworkError("path reconstruction failed")
            seq.append(nxt)
            cur = nxt
        path = self._paths[b] = tuple([self._nodes[i] for i in seq])
        return PathResult(total, path)

    def diameter(self) -> int:
        """Largest pairwise travel time in the network."""
        # strong connectivity leaves no row holding _INF
        return max(max(self._dist_from(i)) for i in range(len(self._nodes)))

    # -- internals ------------------------------------------------------------

    def _require(self, node: int) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node!r}")

    def _dijkstra(self, adj: list[list[tuple[int, int]]], source: int) -> list[int]:
        n = len(self._nodes)
        dist: list[int] = [_INF] * n
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, t in adj[u]:
                nd = d + t
                if dist[v] is _INF or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def _dist_from(self, source_idx: int) -> list[int]:
        row = self._rows[source_idx]
        if row is None:
            row = self._rows[source_idx] = self._dijkstra(self._adj, source_idx)
        return row

    def _dist_to(self, target_idx: int) -> list[int]:
        col = self._cols[target_idx]
        if col is None:
            col = self._cols[target_idx] = self._dijkstra(self._radj, target_idx)
        return col

    def _check_strongly_connected(self) -> None:
        # node 0's row says whom it reaches, its column who reaches it
        for dist, label in ((self._dist_from(0), "forward"), (self._dist_to(0), "backward")):
            if _INF in dist:
                missing = self._nodes[dist.index(_INF)]
                raise NetworkError(
                    f"network is not strongly connected ({label} sweep "
                    f"cannot reach node {missing})"
                )
