"""Network queries checked against brute-force graph oracles."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from fleetsim.network import Network, NetworkError, PathResult, UnknownNodeError, grid_node


# -- oracles -----------------------------------------------------------------


def bfs_times(edges, source):
    """Unit-time shortest distances by plain BFS (oracle)."""
    adj = {}
    for u, v, _ in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, [])
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bellman_ford_times(edges, source):
    """Weighted shortest distances by Bellman-Ford relaxation (oracle)."""
    nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    dist = {n: None for n in nodes}
    dist[source] = 0
    for _ in range(len(nodes)):
        changed = False
        for u, v, t in edges:
            if dist[u] is not None and (dist[v] is None or dist[u] + t < dist[v]):
                dist[v] = dist[u] + t
                changed = True
        if not changed:
            break
    return dist


def all_min_paths(edges, source, target):
    """Every minimum-cost node sequence, by exhaustive DFS (oracle)."""
    adj = {}
    nodes = set()
    for u, v, t in edges:
        adj.setdefault(u, []).append((v, t))
        nodes.update((u, v))
    best = bellman_ford_times(edges, source)[target]
    out = []

    def walk(u, cost, seq):
        if cost > best:
            return
        if u == target and cost == best:
            out.append(tuple(seq))
            return
        for v, t in adj.get(u, ()):
            if v not in seq:
                seq.append(v)
                walk(v, cost + t, seq)
                seq.pop()

    walk(source, 0, [source])
    return out


def grid_edges(width, height, edge_time=1):
    edges = []
    for y in range(height):
        for x in range(width):
            a = grid_node(width, x, y)
            if x + 1 < width:
                edges.append((a, grid_node(width, x + 1, y), edge_time))
                edges.append((grid_node(width, x + 1, y), a, edge_time))
            if y + 1 < height:
                edges.append((a, grid_node(width, x, y + 1), edge_time))
                edges.append((grid_node(width, x, y + 1), a, edge_time))
    return edges


def random_strong_network(rng, n_nodes, extra_edges, max_time=9):
    """Random strongly connected weighted digraph: a cycle plus chords."""
    nodes = list(range(n_nodes))
    rng.shuffle(nodes)
    edges = []
    for i, u in enumerate(nodes):
        v = nodes[(i + 1) % n_nodes]
        edges.append((u, v, rng.randint(1, max_time)))
    for _ in range(extra_edges):
        u, v = rng.sample(range(n_nodes), 2)
        edges.append((u, v, rng.randint(1, max_time)))
    return edges


# -- construction ------------------------------------------------------------


def test_grid_counts():
    net = Network.build_grid(5, 5)
    assert net.node_count == 25
    # 2 * (2*w*h - w - h) directed arcs in a 4-connected grid
    assert net.edge_count == 80


def test_grid_rejects_zero_dimension():
    with pytest.raises(NetworkError):
        Network.build_grid(0, 5)
    with pytest.raises(NetworkError):
        Network.build_grid(5, 0)


def test_grid_rejects_single_cell():
    with pytest.raises(NetworkError):
        Network.build_grid(1, 1)


def test_rejects_zero_time_edge():
    with pytest.raises(NetworkError):
        Network([(0, 1, 1), (1, 0, 0)])


def test_rejects_disconnected():
    with pytest.raises(NetworkError, match="forward sweep cannot reach node 2"):
        Network([(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)])


def test_rejects_one_way_component():
    # 2 is reachable but cannot get back
    with pytest.raises(NetworkError, match="backward sweep cannot reach node 2"):
        Network([(0, 1, 1), (1, 0, 1), (0, 2, 1)])


def test_edge_list_parsing():
    text = """
    # triangle with a comment
    0 1 2
    1 2 2   # inline note
    2 0 2
    """
    net = Network.from_edge_list(text)
    assert net.node_count == 3
    assert net.travel_time(0, 2) == 4


def test_equal_definitions_share_one_network(tmp_path):
    grid = Network.build_grid(5, 4)
    assert Network.build_grid(5, 4) is grid and Network.build_grid(5, 4, 1) is grid
    assert Network.build_grid(5, 4, 2) is not grid
    assert Network.build_grid(4, 5) is not grid
    text = "0 1 2\n1 0 3\n"
    listed = Network.from_edge_list(text)
    assert Network.from_edge_list(text) is listed
    assert Network.from_edge_list(text + "# same edges\n") is not listed
    path = tmp_path / "edges.txt"
    path.write_text(text)
    assert Network.load_edge_list(path) is listed
    path.write_text("0 1 5\n1 0 5\n")
    changed = Network.load_edge_list(path)
    assert changed is not listed and changed.travel_time(0, 1) == 5
    edges = grid_edges(5, 4)
    assert Network(edges) is not Network(edges)


def test_edge_list_bad_line():
    with pytest.raises(NetworkError):
        Network.from_edge_list("0 1\n")
    with pytest.raises(NetworkError):
        Network.from_edge_list("0 1 x\n")


# -- travel times ------------------------------------------------------------


def test_travel_time_examples():
    net = Network.build_grid(5, 5)
    assert net.travel_time(grid_node(5, 0, 0), grid_node(5, 0, 0)) == 0
    # Manhattan distance on a unit grid
    assert net.travel_time(grid_node(5, 0, 0), grid_node(5, 3, 4)) == 7


def test_travel_time_unknown_node():
    net = Network.build_grid(3, 3)
    with pytest.raises(UnknownNodeError):
        net.travel_time(0, 99)
    with pytest.raises(UnknownNodeError, match="99"):
        net.travel_times(0, [1, 99])
    with pytest.raises(UnknownNodeError, match="99"):
        net.travel_times(99, [1])


def test_travel_time_matches_bfs_oracle_exhaustively():
    edges = grid_edges(7, 7)
    net = Network(edges)
    for source in net.nodes:
        oracle = bfs_times(edges, source)
        for target in net.nodes:
            assert net.travel_time(source, target) == oracle[target]


def test_travel_time_matches_bellman_ford_on_random_networks():
    rng = random.Random(1905)
    for _ in range(25):
        edges = random_strong_network(rng, rng.randint(2, 12), rng.randint(0, 20))
        net = Network(edges)
        source = rng.choice(net.nodes)
        oracle = bellman_ford_times(edges, source)
        for target in net.nodes:
            assert net.travel_time(source, target) == oracle[target]
        targets = [rng.choice(net.nodes) for _ in range(5)]
        assert net.travel_times(source, targets) == [oracle[t] for t in targets]


def test_travel_times_read_lazy_rows_on_a_large_grid():
    # on 40 x 26 = 1040 nodes each source's row comes from one
    # single-source Dijkstra, run the first time the row is read
    edges = grid_edges(40, 26)
    net = Network(edges)
    rng = random.Random(26)
    for source in rng.sample(net.nodes, 4):
        oracle = bfs_times(edges, source)
        targets = rng.sample(net.nodes, 50) + [source]
        assert net.travel_times(source, targets) == [oracle[t] for t in targets]
        assert [net.travel_time(source, t) for t in targets] == [oracle[t] for t in targets]
    with pytest.raises(UnknownNodeError):
        net.travel_times(0, [1, 5000])


def test_grid_times_symmetric():
    net = Network.build_grid(6, 4, edge_time=3)
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.choice(net.nodes), rng.choice(net.nodes)
        assert net.travel_time(a, b) == net.travel_time(b, a)


def test_triangle_inequality_sampled():
    rng = random.Random(99)
    edges = random_strong_network(rng, 15, 40)
    net = Network(edges)
    for _ in range(500):
        a, b, c = (rng.choice(net.nodes) for _ in range(3))
        assert net.travel_time(a, c) <= net.travel_time(a, b) + net.travel_time(b, c)


# -- paths -------------------------------------------------------------------


def test_shortest_path_totals_and_legs():
    rng = random.Random(4242)
    edges = random_strong_network(rng, 10, 25)
    net = Network(edges)
    cheapest = {}
    for u, v, t in edges:
        cheapest[(u, v)] = min(t, cheapest.get((u, v), t))
    for _ in range(100):
        a, b = rng.choice(net.nodes), rng.choice(net.nodes)
        path = net.shortest_path(a, b)
        assert path.total_time == net.travel_time(a, b)
        assert path.node_sequence[0] == a
        assert path.node_sequence[-1] == b
        total = 0
        for u, v in zip(path.node_sequence, path.node_sequence[1:]):
            total += cheapest[(u, v)]
        assert total == path.total_time


def test_shortest_path_trivial():
    net = Network.build_grid(3, 3)
    assert net.shortest_path(4, 4) == PathResult(0, (4,))


def test_shortest_path_lexicographic_tie_break():
    # on a unit grid many minimum paths exist; the smallest node
    # sequence must be returned, per the exhaustive path oracle
    edges = grid_edges(4, 4)
    net = Network(edges)
    rng = random.Random(3)
    for _ in range(30):
        a, b = rng.choice(net.nodes), rng.choice(net.nodes)
        got = net.shortest_path(a, b).node_sequence
        assert got == min(all_min_paths(edges, a, b))


def test_shortest_path_deterministic_across_instances():
    a = Network(grid_edges(8, 8))
    b = Network(grid_edges(8, 8))
    for pair in [(0, 63), (7, 56), (12, 50)]:
        assert a.shortest_path(*pair) == b.shortest_path(*pair)



# -- the lazy store ------------------------------------------------------------


@st.composite
def query_orders(draw):
    """A random strong network, a list of queries, and a second order of them.

    The network is directed or has every edge both ways at one time (so
    each node's column is its row), with edge times up to 4 or up to 1,000.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 30))
    max_time = draw(st.sampled_from([4, 1000]))
    edges = random_strong_network(rng, n, draw(st.integers(0, 2 * n)), max_time=max_time)
    if draw(st.booleans()):
        edges += [(v, u, t) for u, v, t in edges]
    node = st.integers(0, n - 1)
    query = st.one_of(
        st.tuples(st.just("travel_time"), node, node),
        st.tuples(st.just("travel_times"), node, st.lists(node, max_size=6)),
        st.tuples(st.just("shortest_path"), node, node),
        st.tuples(st.just("diameter")),
    )
    queries = draw(st.lists(query, min_size=1, max_size=25))
    return edges, queries, draw(st.permutations(range(len(queries))))


def _ask(net, query):
    name, *args = query
    return getattr(net, name)(*args)


@settings(max_examples=200, deadline=None)
@given(query_orders())
def test_answers_do_not_depend_on_the_order_of_first_use(case):
    # each row and column is filled by whichever query needs it first
    edges, queries, order = case
    first, second = Network(edges), Network(edges)
    answers = [_ask(first, query) for query in queries]
    reordered = {i: _ask(second, queries[i]) for i in order}
    assert answers == [reordered[i] for i in range(len(queries))]
    oracle = {u: bellman_ford_times(edges, u) for u in first.nodes}
    cheapest = {}
    for u, v, t in edges:
        cheapest[(u, v)] = min(t, cheapest.get((u, v), t))
    for (name, *args), got in zip(queries, answers):
        if name == "travel_time":
            a, b = args
            assert got == oracle[a][b]
        elif name == "travel_times":
            a, targets = args
            assert got == [oracle[a][b] for b in targets]
        elif name == "shortest_path":
            a, b = args
            seq = got.node_sequence
            assert got.total_time == oracle[a][b]
            assert (seq[0], seq[-1]) == (a, b)
            assert sum(cheapest[leg] for leg in zip(seq, seq[1:])) == got.total_time
            if first.node_count <= 8:
                assert seq == min(all_min_paths(edges, a, b))
        else:
            assert got == max(max(dist.values()) for dist in oracle.values())
