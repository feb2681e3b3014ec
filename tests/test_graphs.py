import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agglab import graphs as G


def triangle():
    return G.Graph(3, [(0, 1), (1, 2), (0, 2)], np.ones((3, 1)))


def test_neighborhood_includes_self():
    assert G.neighborhood(triangle(), 0) == [0, 1, 2]
    lonely = G.Graph(3, [], np.ones((3, 1)))
    assert G.neighborhood(lonely, 1) == [1]
    path = G.Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    assert G.neighborhood(path, 1) == [0, 1, 2]
    assert G.neighborhood(path, 0) == [0, 1]


def test_neighborhood_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        G.neighborhood(triangle(), 3)


def test_neighborhood_size_is_degree_plus_one():
    ds = G.gen_er_triangle_dataset(5, n_nodes=8, p=0.4, seed=2)
    for g in ds.graphs:
        for v in range(g.num_nodes):
            assert len(G.neighborhood(g, v)) == sum(v in e for e in g.edges) + 1
            assert v in G.neighborhood(g, v)


def test_graph_rejects_self_loops_and_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        G.Graph(3, [(1, 1)], np.ones((3, 1)))
    with pytest.raises(ValueError, match="out of range"):
        G.Graph(3, [(0, 5)], np.ones((3, 1)))


def _normalized_edges_loop(num_nodes, edges):
    """The per-edge loop Graph.__init__ replaced."""
    seen = set()
    norm = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u},{v}) out of range for {num_nodes} nodes")
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            norm.append(key)
    return sorted(norm)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)), max_size=25))
@example(3, [(2, 1), (1, 2), (0, 1), (1, 0)])  # duplicates and reversed pairs
@example(3, [(0, 1), (4, 4)])                  # a self-loop out of range: the self-loop check first
@example(3, [(0, 7), (1, 1)])                  # the first offending edge is reported
@example(3, [(0, 2**70)])                      # an end beyond intp
def test_graph_edges_match_the_per_edge_loop(n, edges):
    try:
        expected = _normalized_edges_loop(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            G.Graph(n, edges, np.ones((n, 1)))
        assert str(raised.value) == str(exc)
        return
    g = G.Graph(n, edges, np.ones((n, 1)))
    assert g.edges == expected
    assert all(type(u) is int and type(v) is int for u, v in g.edges)
    assert [e.tolist() for e in g._ends] == [[u for u, _ in expected], [v for _, v in expected]]


def test_graph_rejects_an_edge_that_is_not_a_pair():
    for edges in ([(0, 1, 2)], [(0,)], [(0, 1), (1,)]):
        with pytest.raises(ValueError, match="pair"):
            G.Graph(3, edges, np.ones((3, 1)))


def test_graph_dedups_edges():
    g = G.Graph(3, [(0, 1), (1, 0), (0, 1)], np.ones((3, 1)))
    assert g.edges == [(0, 1)]


def test_count_triangles_small_cases():
    assert G.count_triangles(triangle()) == 1
    c4 = G.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], np.ones((4, 1)))
    assert G.count_triangles(c4) == 0
    k4 = G.Graph(4, list(itertools.combinations(range(4), 2)), np.ones((4, 1)))
    assert G.count_triangles(k4) == 4


def test_count_triangles_relabel_invariant():
    rng = np.random.default_rng(0)
    ds = G.gen_er_triangle_dataset(10, n_nodes=7, p=0.4, seed=3)
    for g in ds.graphs:
        base = G.count_triangles(g)
        for _ in range(5):
            perm = rng.permutation(g.num_nodes)
            assert G.count_triangles(G.relabel(g, perm)) == base


def test_relabel_identity_and_inverse():
    g = triangle()
    assert G.relabel(g, [0, 1, 2]) == g
    perm = [2, 0, 1]
    inv = [perm.index(i) for i in range(3)]
    assert G.relabel(G.relabel(g, perm), inv) == g
    assert G.count_triangles(G.relabel(g, perm)) == 1


def test_relabel_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        G.relabel(triangle(), [0, 0, 1])


def test_regular_pair_properties():
    k33, prism = G.gen_regular_pair()
    for g in (k33, prism):
        assert g.num_nodes == 6
        assert len(g.edges) == 9
        assert all(d == 3 for d in g.degrees())
    assert G.count_triangles(k33) == 0
    assert G.count_triangles(prism) == 2


def test_regular_pair_not_isomorphic_brute_force():
    k33, prism = G.gen_regular_pair()
    assert not G.are_isomorphic(k33, prism)
    # sanity: a relabeled copy IS isomorphic
    assert G.are_isomorphic(prism, G.relabel(prism, [3, 1, 5, 0, 2, 4]))


def test_er_generator_deterministic_and_labeled():
    d1 = G.gen_er_triangle_dataset(20, n_nodes=6, p=0.5, seed=7)
    d2 = G.gen_er_triangle_dataset(20, n_nodes=6, p=0.5, seed=7)
    for a, b in zip(d1.graphs, d2.graphs):
        assert a == b
    for g in d1.graphs:
        assert g.target == float(G.count_triangles(g))
        assert np.array_equal(g.node_features, np.ones((6, 1)))


def test_er_generator_degenerate_probabilities():
    full = G.gen_er_triangle_dataset(3, n_nodes=3, p=1.0, seed=0)
    assert all(g.target == 1.0 for g in full.graphs)
    empty = G.gen_er_triangle_dataset(3, n_nodes=5, p=0.0, seed=0)
    assert all(g.target == 0.0 for g in empty.graphs)


def _scalar_er_edges(rng, n, p):
    """One rng.random() call per node pair, the loop _er_edges replaced."""
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]


@pytest.mark.parametrize("n, p", [(0, 0.5), (1, 0.5), (2, 0.5), (7, 0.3), (12, 0.9)])
def test_er_edges_match_the_scalar_draws(n, p):
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert G._er_edges(rng, n, p) == _scalar_er_edges(ref, n, p)
        assert rng.bit_generator.state == ref.bit_generator.state
        ds = G.gen_er_triangle_dataset(3, n_nodes=n, p=p, seed=seed)
        ref = np.random.default_rng(seed)
        assert [g.edges for g in ds.graphs] == [_scalar_er_edges(ref, n, p) for _ in range(3)]


def test_random_featured_graph_takes_the_generator_edges():
    rng = np.random.default_rng(4)
    for n, p, width in [(1, 0.4, 2), (8, 0.4, 3), (10, 0.7, 1)]:
        seed = int(copy.deepcopy(rng).integers(0, 2**31))  # the seed it will draw
        g = G.random_featured_graph(rng, n, p, width)
        assert g.edges == G.gen_er_triangle_dataset(1, n, p, seed).graphs[0].edges
        assert g.node_features.shape == (n, width) and g.target is None


def test_save_load_roundtrip(tmp_path):
    ds = G.gen_er_triangle_dataset(10, n_nodes=5, p=0.4, seed=11)
    path = tmp_path / "data.jsonl"
    G.save_graphs(ds, path)
    back = G.load_graphs(path)
    assert len(back) == 10
    assert back.split == ds.split
    for a, b in zip(ds.graphs, back.graphs):
        assert a == b


def test_save_load_roundtrip_keeps_the_feature_width(tmp_path):
    rng = np.random.default_rng(2)
    graphs = [G.Graph(g.num_nodes, g.edges, rng.standard_normal((g.num_nodes, 3)), g.target)
              for g in G.gen_er_triangle_dataset(6, n_nodes=4, seed=1).graphs]
    G.save_graphs(G.Dataset(graphs), tmp_path / "d.jsonl")
    back = G.load_graphs(tmp_path / "d.jsonl")
    assert back.graphs == graphs and back.feature_width == 3


def test_a_graph_without_nodes_is_not_saved(tmp_path):
    # its (0, 1) features were written as [], which loads as shape (0,)
    ds = G.gen_er_triangle_dataset(3, n_nodes=0, seed=0)
    with pytest.raises(ValueError, match="graph 0 has no nodes"):
        G.save_graphs(ds, tmp_path / "d.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_a_line_of_another_feature_width(tmp_path):
    path = tmp_path / "d.jsonl"
    G.save_graphs(G.gen_er_triangle_dataset(4, n_nodes=3, seed=0), path)
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                           "node_features": [[1.0, 0.0], [1.0, 0.0]], "target": 0})
    path.write_text("\n\n".join(lines) + "\n")  # blank lines between records
    with pytest.raises(G.GraphFileError, match="line 5: node features have 2 columns, "
                                               "line 1's have 1"):
        G.load_graphs(path)


def test_save_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    G.save_graphs(G.gen_er_triangle_dataset(10, seed=5), p1)
    G.save_graphs(G.gen_er_triangle_dataset(10, seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"num_nodes": 3, "edges": [[0, 1]],
                       "node_features": [[1.0], [1.0], [1.0]], "target": 0})
    bad = json.dumps({"num_nodes": 3, "edges": [[0, 5]],
                      "node_features": [[1.0], [1.0], [1.0]], "target": 0})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(G.GraphFileError, match="line 2"):
        G.load_graphs(path)


def test_load_reports_malformed_json_and_ragged_features(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(G.GraphFileError, match="line 1"):
        G.load_graphs(path)
    ragged = json.dumps({"num_nodes": 2, "edges": [],
                         "node_features": [[1.0], [1.0, 2.0]], "target": 0})
    path.write_text(ragged + "\n")
    with pytest.raises(G.GraphFileError, match="line 1"):
        G.load_graphs(path)


@pytest.mark.parametrize("target",
                         ['"three"', "[1, 2]", "true", "NaN", "-Infinity", "1" + "0" * 400])
def test_load_rejects_a_target_that_is_not_a_finite_number(target, tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"num_nodes": 2, "edges": [[0, 1]], "node_features": [[1.0], [1.0]],
                       "target": 0})
    path.write_text(good + "\n" + good.replace('"target": 0', f'"target": {target}') + "\n")
    with pytest.raises(G.GraphFileError, match="line 2: target .* is not a finite number"):
        G.load_graphs(path)


# Each value loaded at one time as a different graph: 3.7, "3" and true as
# 3, 3 and 1 nodes, [0, 1.9] as the edge (0, 1), "1.5" and true as numbers.
FIELDS_OF_THE_WRONG_TYPE = [
    ("num_nodes", 3.7, "num_nodes 3.7 is not an int >= 0"),
    ("num_nodes", "3", "num_nodes '3' is not an int >= 0"),
    ("num_nodes", True, "num_nodes True is not an int >= 0"),
    ("edges", [[0, 1.9]], r"edge \[0, 1.9\] has an end that is not an int"),
    ("edges", [["0", "1"]], r"edge \['0', '1'\] has an end that is not an int"),
    ("edges", [[False, True]], r"edge \[False, True\] has an end that is not an int"),
    ("node_features", [["1.5"], [1.0], [1.0]], "node feature '1.5' is not a finite number"),
    ("node_features", [[1.0], [True], [1.0]], "node feature True is not a finite number"),
    ("node_features", [[1.0], [1.0], [math.nan]], "node feature nan is not a finite number"),
    ("node_features", [[1.0], [math.inf], [1.0]], "node feature inf is not a finite number"),
]


@pytest.mark.parametrize("field, value, message", FIELDS_OF_THE_WRONG_TYPE,
                         ids=[f"{f}={json.dumps(v)}" for f, v, _ in FIELDS_OF_THE_WRONG_TYPE])
def test_load_rejects_a_field_of_the_wrong_type(field, value, message, tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {"num_nodes": 3, "edges": [[0, 1]], "node_features": [[1.0], [1.0], [1.0]],
            "target": 0}
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(G.GraphFileError, match=f"line 2: {message}"):
        G.load_graphs(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    ds = G.load_graphs(path)
    assert len(ds) == 0


def test_dataset_split_validation():
    gs = G.gen_er_triangle_dataset(4, n_nodes=4, seed=0).graphs
    with pytest.raises(ValueError, match="split"):
        G.Dataset(gs, {"train": [0, 1], "valid": [1], "test": [2, 3]})


def test_message_index_canonical_order():
    g = G.Graph(3, [(0, 1), (1, 2)], np.ones((3, 1)))
    src, dst = g.message_index()
    assert dst.tolist() == [0, 0, 1, 1, 1, 2, 2]
    assert src.tolist() == [0, 1, 0, 1, 2, 1, 2]


def adjacency_sets(graph):
    adj = [set() for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@st.composite
def edge_lists(draw):
    """A node count and an edge list with repeated and reversed pairs."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pair, max_size=40))


@given(edge_lists())
@example((0, []))
@example((4, [(2, 0), (0, 2), (0, 2), (1, 0)]))  # node 3 isolated
@settings(max_examples=200, deadline=None)
def test_message_index_matches_the_per_node_loop(case):
    """The lexsorted index against the loop it replaced: each node's
    sorted neighbourhood, self included, in node order."""
    n, edges = case
    g = G.Graph(n, edges, np.ones((n, 1)))
    adj = adjacency_sets(g)
    src, dst = g.message_index()
    want_src = [u for v in range(n) for u in sorted(adj[v] | {v})]
    want_dst = [v for v in range(n) for _ in range(len(adj[v]) + 1)]
    assert src.dtype == dst.dtype == g.degrees().dtype == np.intp
    assert src.tolist() == want_src and dst.tolist() == want_dst
    assert g.degrees().tolist() == [len(a) for a in adj]
    for v in range(n):
        got = G.neighborhood(g, v)
        assert got == sorted(adj[v] | {v}) and all(type(u) is int for u in got)


def brute_force_triangles(graph):
    """The oracle count_triangles replaced: enumerate every node triple."""
    adj = adjacency_sets(graph)
    return sum(1 for i, j, k in itertools.combinations(range(graph.num_nodes), 3)
               if j in adj[i] and k in adj[i] and k in adj[j])


@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_count_triangles_matches_triple_enumeration(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    g = G.Graph(n, edges, np.ones((n, 1)))
    assert G.count_triangles(g) == brute_force_triangles(g)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
def test_count_triangles_empty_and_complete(n):
    empty = G.Graph(n, [], np.ones((n, 1)))
    complete = G.Graph(n, list(itertools.combinations(range(n), 2)), np.ones((n, 1)))
    assert G.count_triangles(empty) == 0
    assert G.count_triangles(complete) == brute_force_triangles(complete) == math.comb(n, 3)
