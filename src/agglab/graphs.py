"""Graph containers, JSON-lines persistence, synthetic generators, and
brute-force combinatorial oracles used as ground truth.

Graphs are undirected, stored without self-loops; neighborhoods always
include the node itself. Node indices are dense in [0, num_nodes).
A GraphBatch is the disjoint union of several graphs; layers and the
model read both through the same attributes. The message index, sorted
by destination and then source, is the only adjacency structure:
degrees and neighborhoods are read off it.
"""

import itertools
import json
import math
import numbers

import numpy as np

from . import tensor as T

__all__ = [
    "Graph", "GraphBatch", "Dataset", "GraphFileError", "neighborhood", "count_triangles",
    "relabel", "are_isomorphic", "gen_er_triangle_dataset", "random_featured_graph",
    "gen_regular_pair", "load_graphs", "save_graphs", "split_path", "is_finite_number",
]


class GraphFileError(ValueError):
    """Malformed dataset file; message carries the offending line number,
    or the path of a malformed split sidecar."""


class _MessageGraph:
    """What Graph and GraphBatch read off their message index."""

    _deg = None

    def degrees(self):
        """Neighbour count per node, self excluded (cached; do not mutate)."""
        if self._deg is None:
            dst = self.message_segments()[1].index
            self._deg = np.bincount(dst, minlength=self.num_nodes) - 1
        return self._deg


def _edge_ends(edges, n):
    """The edges as intp arrays (lo, hi), lo < hi, sorted by (lo, hi) and
    de-duplicated. The first edge in input order that is a self-loop, or
    else has an end outside [0, n), raises ValueError."""
    edges = list(edges)
    if set(map(len, edges)) - {2}:
        raise ValueError("every edge must be a (u, v) pair")
    try:
        flat = np.fromiter(itertools.chain.from_iterable(edges), np.intp, 2 * len(edges))
    except OverflowError:  # an end beyond intp; reported as out of range below
        flat = np.array([int(x) for x in itertools.chain.from_iterable(edges)], dtype=object)
    u, v = flat[0::2], flat[1::2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo < 0) | (hi >= n) | (lo == hi)
    if np.count_nonzero(bad):
        k = int(np.argmax(bad))
        u, v = int(u[k]), int(v[k])
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        raise ValueError(f"edge ({u},{v}) out of range for {n} nodes")
    key = lo * n + hi
    if np.count_nonzero(key[1:] <= key[:-1]):  # unsorted or repeated
        key = np.sort(key)
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        lo, hi = np.divmod(key, n)
    return lo, hi


class Graph(_MessageGraph):
    """Undirected graph with per-node feature vectors and an optional target.

    Edges are normalized to sorted (u, v) pairs with u < v, deduplicated,
    and kept in sorted order, so two equal graphs compare equal
    structurally; the message index and the triangle count read them as
    the index arrays _ends = (u's, v's). Instances are immutable by
    convention.
    """

    num_graphs = 1

    def __init__(self, num_nodes, edges, node_features, target=None):
        self.num_nodes = int(num_nodes)
        self._ends = lo, hi = _edge_ends(edges, self.num_nodes)
        self.edges = list(zip(lo.tolist(), hi.tolist()))
        feats = np.asarray(node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.num_nodes:
            raise ValueError(
                f"node_features must be ({self.num_nodes}, d), got {feats.shape}")
        self.node_features = feats
        self.target = target
        self._msg = None
        self._segs = None
        self._pool = None

    def message_index(self):
        """(src, dst) index arrays with one entry per (v, u in N(v)) pair.

        dst runs over nodes in ascending order; within a node, sources
        follow the canonical sorted neighborhood (self included).
        """
        if self._msg is None:
            u, v = self._ends
            nodes = np.arange(self.num_nodes, dtype=np.intp)
            src = np.concatenate([u, v, nodes])
            dst = np.concatenate([v, u, nodes])
            order = np.lexsort((src, dst))
            self._msg = (src[order], dst[order])
        return self._msg

    def message_segments(self):
        """(by_src, by_dst) tensor.Segments over message_index(): by_dst
        is sorted already, by_src carries one stable sort by source."""
        if self._segs is None:
            src, dst = self.message_index()
            self._segs = (T.Segments(src, self.num_nodes, order=np.argsort(src, kind="stable")),
                          T.Segments(dst, self.num_nodes))
        return self._segs

    @property
    def node_graph(self):
        """Segments mapping every node to graph 0, for the readout."""
        if self._pool is None:
            self._pool = T.Segments(np.zeros(self.num_nodes, dtype=np.intp), 1)
        return self._pool

    @property
    def targets(self):
        return [self.target]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes and self.edges == other.edges
                and np.array_equal(self.node_features, other.node_features)
                and self.target == other.target)

    def __repr__(self):
        return f"Graph(n={self.num_nodes}, m={len(self.edges)}, target={self.target})"


class GraphBatch(_MessageGraph):
    """Disjoint union of graphs, built by array concatenation.

    Node i of the k-th graph becomes node node_offsets[k] + i. Each
    graph's cached message index and source sort are offset and
    concatenated, so the union's index stays sorted by destination and
    its source sort needs no new argsort. node_graph maps every node to
    its graph, sorted, for the readout's segment sum; targets lists the
    graphs' targets in order. Layers, neighborhood and the staged ExpC
    route read a batch like a Graph.
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        if not graphs:
            raise ValueError("a graph batch needs at least one graph")
        widths = {g.node_features.shape[1] for g in graphs}
        if len(widths) != 1:
            raise ValueError(f"graphs in a batch need one feature width, got {sorted(widths)}")
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.intp)
        self.node_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.num_graphs = len(graphs)
        self.num_nodes = int(self.node_offsets[-1])
        self.node_features = np.concatenate([g.node_features for g in graphs])
        self.targets = [g.target for g in graphs]
        per_graph = [g.message_segments() for g in graphs]
        lengths = np.array([len(dst.index) for _, dst in per_graph], dtype=np.intp)
        msg_offsets = np.concatenate(([0], np.cumsum(lengths)))
        shift = np.repeat(self.node_offsets[:-1], lengths)
        src = np.concatenate([s.index for s, _ in per_graph]) + shift
        dst = np.concatenate([d.index for _, d in per_graph]) + shift
        order = np.concatenate([s.order + m for (s, _), m in zip(per_graph, msg_offsets)])
        self._segs = (T.Segments(src, self.num_nodes, order=order),
                      T.Segments(dst, self.num_nodes))
        self.node_graph = T.Segments(np.repeat(np.arange(self.num_graphs), sizes),
                                     self.num_graphs)

    def message_segments(self):
        return self._segs

    def __repr__(self):
        return f"GraphBatch(graphs={self.num_graphs}, n={self.num_nodes})"


class Dataset:
    """A list of graphs plus disjoint train/valid/test index splits."""

    def __init__(self, graphs, split=None, metadata=None):
        self.graphs = list(graphs)
        if split is None:
            split = {"train": list(range(len(self.graphs))), "valid": [], "test": []}
        self.split = split
        self.metadata = metadata or {}
        covered = sorted(split["train"] + split["valid"] + split["test"])
        if covered != list(range(len(self.graphs))):
            raise ValueError("splits must be disjoint and cover all graph indices")

    def subset(self, name):
        return [self.graphs[i] for i in self.split[name]]

    @property
    def feature_width(self):
        """Node-feature columns of the first graph; 1 for no graphs."""
        return self.graphs[0].node_features.shape[1] if self.graphs else 1

    def __len__(self):
        return len(self.graphs)


def neighborhood(graph, v):
    """Sorted list of v's neighbors including v itself, for a Graph or a
    GraphBatch: v's run of the destination-sorted message index."""
    if not 0 <= v < graph.num_nodes:
        raise ValueError(f"node {v} out of range for {graph.num_nodes} nodes")
    src, dst = graph.message_segments()
    lo, hi = dst.index.searchsorted(v), dst.index.searchsorted(v, "right")
    return src.index[lo:hi].tolist()


def count_triangles(graph):
    """Exact triangle count, trace(A^3) / 6 in integer arithmetic.

    A is symmetric, so trace(A^3) is the sum of the entries of (A @ A) * A.
    """
    A = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.int64)
    u, v = graph._ends
    A[u, v] = A[v, u] = 1
    return int(((A @ A) * A).sum()) // 6


def relabel(graph, permutation):
    """Relabel nodes: node v becomes permutation[v], features move along."""
    perm = list(permutation)
    if sorted(perm) != list(range(graph.num_nodes)):
        raise ValueError("permutation must be a bijection on node indices")
    edges = [(perm[u], perm[v]) for u, v in graph.edges]
    feats = np.empty_like(graph.node_features)
    for v in range(graph.num_nodes):
        feats[perm[v]] = graph.node_features[v]
    return Graph(graph.num_nodes, edges, feats, target=graph.target)


def are_isomorphic(g1, g2):
    """Brute-force isomorphism test over all n! relabelings. Guarded to n <= 8."""
    if g1.num_nodes != g2.num_nodes:
        return False
    if g1.num_nodes > 8:
        raise ValueError("brute-force isomorphism only supported for n <= 8")
    if len(g1.edges) != len(g2.edges):
        return False
    target = set(g2.edges)
    for perm in itertools.permutations(range(g1.num_nodes)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in target
               for u, v in g1.edges):
            return True
    return False


def _er_edges(rng, n, p):
    """Erdos-Renyi edges: each pair u < v, in row-major order, is kept when
    its uniform draw is below p. One rng.random(k) call draws the same
    numbers, and leaves rng in the same state, as k scalar calls."""
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < p
    return list(zip(u[keep].tolist(), v[keep].tolist()))


def gen_er_triangle_dataset(count, n_nodes=10, p=0.3, seed=0,
                            split_fracs=(0.8, 0.1, 0.1)):
    """Erdos-Renyi graphs with constant feature [1.0]; target = triangle count.

    Deterministic given the seed. Splits are contiguous index ranges of
    the (already random) generation order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    for name, value in (("count", count), ("n_nodes", n_nodes)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        g = Graph(n_nodes, _er_edges(rng, n_nodes, p), np.ones((n_nodes, 1)))
        g.target = float(count_triangles(g))
        graphs.append(g)
    n_train = int(round(split_fracs[0] * count))
    n_valid = int(round(split_fracs[1] * count))
    split = {
        "train": list(range(0, n_train)),
        "valid": list(range(n_train, n_train + n_valid)),
        "test": list(range(n_train + n_valid, count)),
    }
    meta = {"generator": "er-triangles", "seed": seed, "n_nodes": n_nodes,
            "p": p, "count": count}
    return Dataset(graphs, split, meta)


def random_featured_graph(rng, n, p, width):
    """ER graph on the edges gen_er_triangle_dataset makes for a seed drawn
    from rng, with (n, width) standard normal features drawn next; no target."""
    edges = _er_edges(np.random.default_rng(int(rng.integers(0, 2**31))), n, p)
    return Graph(n, edges, rng.standard_normal((n, width)))


def gen_regular_pair():
    """(K33, triangular prism): 3-regular on 6 nodes, non-isomorphic,
    indistinguishable by color refinement from uniform initial colors.

    Targets carry the triangle counts (0 and 2) that tell them apart.
    """
    k33_edges = [(u, v) for u in range(3) for v in range(3, 6)]
    prism_edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                   (0, 3), (1, 4), (2, 5)]
    feats = np.ones((6, 1))
    k33 = Graph(6, k33_edges, feats, target=0.0)
    prism = Graph(6, prism_edges, feats, target=2.0)
    return k33, prism


def is_finite_number(value):
    """True for a finite int or float. A bool, a string, a list, NaN and
    the infinities are not numbers a graph's target can hold."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def split_path(path):
    """Sidecar location for a dataset's split file."""
    return str(path) + ".split.json"


def save_graphs(dataset, path):
    """Write one JSON object per graph, plus a split sidecar file. A graph
    without nodes raises ValueError before any file is opened: its (0, d)
    features would be written as [], which reads back as no matrix."""
    for i, g in enumerate(dataset.graphs):
        if g.num_nodes == 0:
            raise ValueError(f"graph {i} has no nodes; a dataset file cannot hold it")
    with open(path, "w") as fh:
        for g in dataset.graphs:
            rec = {
                "num_nodes": g.num_nodes,
                "edges": [[u, v] for u, v in g.edges],
                "node_features": g.node_features.tolist(),
                "target": g.target,
            }
            fh.write(json.dumps(rec) + "\n")
    with open(split_path(path), "w") as fh:
        json.dump(dataset.split, fh)


def _check_record(rec):
    """ValueError, naming the field, for a dataset record that Graph would
    reject with a message of Python's or numpy's, or would convert into a
    different graph. A record is an object whose num_nodes is an int >= 0,
    whose edges are [u, v] pairs of ints and whose node_features are
    num_nodes rows of one width, each entry a finite number (a bool is
    none of these). Graph rejects the edges that are self-loops or out of
    range."""
    if type(rec) is not dict:
        raise ValueError(f"the record {rec!r:.40} is not an object with num_nodes, "
                         f"edges and node_features")
    for name in ("num_nodes", "edges", "node_features"):
        if name not in rec:
            raise ValueError(f"the record has no {name!r} field")
    n = rec["num_nodes"]
    if type(n) is not int or n < 0:
        raise ValueError(f"num_nodes {n!r} is not an int >= 0")
    edges, feats = rec["edges"], rec["node_features"]
    if type(edges) is not list:
        raise ValueError(f"edges {edges!r:.40} is not a list of [u, v] pairs")
    for edge in edges:
        if type(edge) is not list or len(edge) != 2:
            raise ValueError(f"edge {edge!r:.40} is not a [u, v] pair")
        if any(type(end) is not int for end in edge):
            raise ValueError(f"edge {edge!r} has an end that is not an int")
    if type(feats) is not list or any(type(row) is not list for row in feats):
        raise ValueError(f"node_features {feats!r:.40} is not a list of rows")
    if len(feats) != n:
        raise ValueError(f"node_features has {len(feats)} rows for {n} nodes")
    widths = sorted({len(row) for row in feats})
    if len(widths) > 1:
        raise ValueError(f"node_features rows have {widths[0]} and {widths[-1]} columns, "
                         f"not one width")
    for row in feats:
        for x in row:
            if not is_finite_number(x):
                raise ValueError(f"node feature {x!r} is not a finite number")


def load_graphs(path):
    """Read a JSON-lines dataset; errors carry the 1-based line number, or
    the split sidecar's path for a sidecar Dataset cannot use."""
    graphs, first = [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GraphFileError(f"line {lineno}: malformed JSON ({exc})") from exc
            try:
                _check_record(rec)
                g = Graph(rec["num_nodes"], rec["edges"], rec["node_features"],
                          target=rec.get("target"))
            except ValueError as exc:
                raise GraphFileError(f"line {lineno}: {exc}") from exc
            if g.target is not None and not is_finite_number(g.target):
                raise GraphFileError(f"line {lineno}: target {g.target!r} is not a finite number")
            width = g.node_features.shape[1]
            first = first or (lineno, width)
            if width != first[1]:
                raise GraphFileError(f"line {lineno}: node features have {width} columns, "
                                     f"line {first[0]}'s have {first[1]}")
            graphs.append(g)
    sidecar = split_path(path)
    try:
        with open(sidecar) as fh:
            split = json.load(fh)
    except FileNotFoundError:
        return Dataset(graphs)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"split sidecar {sidecar}: malformed JSON ({exc})") from exc
    try:
        _check_split(split)
        return Dataset(graphs, split)
    except ValueError as exc:
        raise GraphFileError(f"split sidecar {sidecar}: {exc}") from exc


def _check_split(split):
    """ValueError unless split maps train, valid and test to lists of ints."""
    if type(split) is not dict:
        raise ValueError("not an object of train, valid and test index lists")
    for name in ("train", "valid", "test"):
        if name not in split:
            raise ValueError(f"no {name!r} index list")
        if type(split[name]) is not list:
            raise ValueError(f"{name!r} is {split[name]!r}, not a list of graph indices")
        bad = [i for i in split[name] if type(i) is not int]
        if bad:
            raise ValueError(f"{name!r} holds {bad[0]!r}, not an int graph index")
