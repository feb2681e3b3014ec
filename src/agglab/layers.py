"""GNN layers over the shared message-list representation.

Node features are row matrices H (num_nodes x d). Every layer consumes the
graph's (src, dst) message index — one entry per ordered pair
(v, u in N(v)), self included — and produces the next H. The graph may be
a Graph or a GraphBatch (a disjoint union); the layers gather and scatter
through the graph's cached Segments, so both run the same code.

ExpC, ExpC-multiagg and CombC are one coefficient-convolution body,
expc_forward; only the step combining the per-edge coefficients with the
neighbor features (vec(m h^T) or m ⊙ h) differs between them.

Two layer families implement the same mathematics by different routes and
are used to certify each other:

  * attention layers: the per-head form (softmax-weighted neighbor sums,
    heads averaged) and the expanded form (per-edge coefficient vectors
    outer-multiplied into features, aggregated once, then mixed by the
    interleaved head-weight matrix);
  * expanding convolution: the per-neighbor MLP-before-sum form and the
    three-stage form that aggregates per output dimension over the
    ReLU-active neighbor subsets.
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .graphs import neighborhood

__all__ = [
    "LayerSpec", "Model", "param_shapes", "init_layer_params", "layer_forward",
    "gcn_forward", "gin0_forward", "gat_default_forward",
    "gat_expanding_forward", "expc_forward", "expc_three_stage_forward",
    "readout", "model_param_count",
    "expc_local_blocks", "save_model", "load_model",
]

LAYER_KINDS = ("GCN", "GIN0", "GAT_DEFAULT", "GAT_EXPANDING", "EXPC",
               "COMBC", "EXPC_THREE_STAGE", "EXPC_MULTIAGG")
# Kinds computed in plain numpy, per node: no gradient flows through
# them, so no Model holds them.
INSPECTION_KINDS = ("EXPC_THREE_STAGE",)
# The kinds that read LayerSpec.s and re_sum (expc_forward's); the others ignore them.
S_KINDS = ("EXPC", "EXPC_MULTIAGG", "EXPC_THREE_STAGE")
RE_SUM_KINDS = ("EXPC", "EXPC_MULTIAGG", "COMBC")


@dataclass
class LayerSpec:
    kind: str
    d_in: int
    d_out: int
    s: int = 1              # expansion factor (EXPC family)
    heads: int = 1          # attention head count (GAT family)
    re_sum: bool = True     # per-neighbor MLP before the sum
    mlp_depth: int = 2
    append: str = "one"     # EXPC_MULTIAGG constant rows: "one" | "one_and_invdeg"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("d_in", "d_out", "s", "heads"):
            _check_count(name, getattr(self, name))
        if type(self.re_sum) is not bool:
            raise ValueError(f"re_sum must be a bool, got {self.re_sum!r}")
        if self.kind.startswith("GAT") and self.d_in != self.d_out:
            raise ValueError("attention layers use square per-head weights: d_in == d_out")
        if self.kind == "EXPC_THREE_STAGE":
            self.mlp_depth = 1  # the dimension-wise rearrangement assumes one layer
        if self.mlp_depth not in (1, 2):
            raise ValueError("mlp_depth must be 1 or 2")
        if self.append not in ("one", "one_and_invdeg"):
            raise ValueError(f"unknown append mode {self.append!r}")


def _check_count(name, value):
    """ValueError unless value is an int >= 1 (a bool is not)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def param_shapes(spec):
    """(name, shape, fan_in) per parameter of a layer, in draw order: a
    weight is uniform in ±1/sqrt(fan_in) and fan_in None marks a zero bias.
    Weights keep the equations' column-vector shapes (the coefficient
    generator is (s, 2*d_in)); forwards transpose them for row-major features."""
    d, out = spec.d_in, spec.d_out
    if spec.kind == "GCN":
        return [("W", (d, out), d), ("b", (1, out), None)]
    if spec.kind.startswith("GAT"):
        return [p for k in range(spec.heads)
                for p in ((f"W{k}", (d, d), d), (f"a{k}", (2 * d, 1), 2 * d))]
    coeff, mlp_in, depth = [], d, 2  # GIN0: the MLP on the plain neighbor sum
    if spec.kind != "GIN0":  # the coefficient convolutions
        appended = (1 if spec.append == "one" else 2) if spec.kind == "EXPC_MULTIAGG" else 0
        # COMBC makes one coefficient per feature and multiplies elementwise
        rows, mlp_in = (spec.s, (spec.s + appended) * d) if spec.kind in S_KINDS else (d, d)
        coeff, depth = [("Wc", (rows, 2 * d), 2 * d), ("bc", (rows, 1), None)], spec.mlp_depth
    mlp = [("W1", (out, mlp_in), mlp_in), ("b1", (out, 1), None),
           ("W2", (out, out), out), ("b2", (out, 1), None)]
    return coeff + mlp[:2 * depth]


def _head_shapes(feat, head_dim):
    """A Model's linear head on feat pooled features, listed as param_shapes lists a layer."""
    return [("W", (feat, head_dim), feat), ("b", (1, head_dim), None)]


def _draw(shapes, rng):
    return {name: T.Tensor(np.zeros(shape) if fan_in is None else _uniform(rng, shape, fan_in))
            for name, shape, fan_in in shapes}


def init_layer_params(spec, rng):
    """Parameter tensors named and shaped by param_shapes, drawn in its order."""
    return _draw(param_shapes(spec), rng)


def _mlp(params, x, depth):
    """Row-major MLP with equation-shaped weights: depth 1 is affine+ReLU
    (the form the dimension-wise rearrangement analyses), depth 2 is
    linear-ReLU-linear."""
    h = T.add(T.matmul(x, T.transpose(params["W1"])), T.transpose(params["b1"]))
    h = T.activation(h, "relu")
    if depth == 1:
        return h
    return T.add(T.matmul(h, T.transpose(params["W2"])), T.transpose(params["b2"]))


def gcn_forward(params, graph, H):
    """Symmetric degree-normalized convolution with self-loops, ReLU output."""
    src, dst = graph.message_segments()
    dhat = graph.degrees() + 1.0
    coeff = 1.0 / np.sqrt(dhat[src.index] * dhat[dst.index])
    msgs = T.elementwise_mul(T.gather_rows(H, src), T.Tensor(coeff[:, None]))
    agg = T.scatter_add_rows(msgs, dst)
    return T.activation(T.add(T.matmul(agg, params["W"]), params["b"]), "relu")


def gin0_forward(params, graph, H):
    """MLP applied to the plain neighbor sum (self included)."""
    src, dst = graph.message_segments()
    summed = T.scatter_add_rows(T.gather_rows(H, src), dst)
    return _mlp(params, summed, depth=2)


def _head_projections(params, H, heads):
    return [T.matmul(H, T.transpose(params[f"W{k}"])) for k in range(heads)]


def gat_default_forward(params, graph, H, heads):
    """Per-head attention: softmax over the neighborhood of
    LeakyReLU(a_k . [W_k h_v || W_k h_u]), heads averaged, then ReLU."""
    src, dst = graph.message_segments()
    total = None
    for k, HW in enumerate(_head_projections(params, H, heads)):
        pair = T.concat([T.gather_rows(HW, dst), T.gather_rows(HW, src)], axis=1)
        logits = T.activation(T.matmul(pair, params[f"a{k}"]), "leakyrelu")
        alpha = T.segment_softmax(logits, dst)
        head_out = T.scatter_add_rows(T.elementwise_mul(T.gather_rows(HW, src), alpha), dst)
        total = head_out if total is None else T.add(total, head_out)
    return T.activation(T.scale(total, 1.0 / heads), "relu")


def gat_expanding_forward(params, graph, H, heads):
    """The same attention layer written as an expanding convolution.

    Identical tensors, different route: per-edge K-vector coefficients
    from the split attention vectors, vec(alpha h_u^T) expansion summed
    over the neighborhood, then one multiplication by the heads' weight
    columns interleaved feature-major.
    """
    src, dst = graph.message_segments()
    d = H.data.shape[1]
    Hs = T.gather_rows(H, src)
    logit_cols = []
    for k, HW in enumerate(_head_projections(params, H, heads)):
        a_self = T.slice_rows(params[f"a{k}"], 0, d)
        a_nbr = T.slice_rows(params[f"a{k}"], d, 2 * d)
        lt = T.add(T.matmul(T.gather_rows(HW, dst), a_self),
                   T.matmul(T.gather_rows(HW, src), a_nbr))
        logit_cols.append(lt)
    logits = T.concat(logit_cols, axis=1)                      # (msgs, K)
    alpha = T.segment_softmax(T.activation(logits, "leakyrelu"), dst)
    expanded = T.expand_outer(alpha, Hs)                       # (msgs, d*K), j*K+k layout
    agg = T.scatter_add_rows(expanded, dst)
    # W_cat column j*K+k must be column j of W_k: interleave the stacked
    # transposed head weights from k-major to j-major row order.
    stacked = T.concat([T.transpose(params[f"W{k}"]) for k in range(heads)], axis=0)
    perm = T.Segments([k * d + j for j in range(d) for k in range(heads)], heads * d)
    w_cat_t = T.gather_rows(stacked, perm)                     # (K*d, d)
    return T.activation(T.scale(T.matmul(agg, w_cat_t), 1.0 / heads), "relu")


def expc_forward(params, graph, H, spec):
    """Coefficient convolution: per-edge coefficient vectors m_uv weight
    the neighbor features before aggregation, as vec(m_uv h_u^T) for EXPC
    and EXPC_MULTIAGG (m_uv with constant rows appended) or m_uv ⊙ h_u
    for COMBC.

    re_sum=True applies the MLP per neighbor and sums the results (the
    nonlinearity acts ahead of the sum); re_sum=False sums the messages
    first and applies the MLP once. When all messages into a node are
    equal (constant node features, say), re_sum=True reduces to |N(v)|
    times one MLP value.
    """
    src, dst = graph.message_segments()
    Hd, Hs = T.gather_rows(H, dst), T.gather_rows(H, src)
    # one expression: a forward without a tape frees its temporaries here, not at return
    C = T.activation(T.add(
        T.matmul(T.concat([Hd, Hs], axis=1), T.transpose(params["Wc"])),
        T.transpose(params["bc"])), "tanh")
    if spec.kind == "EXPC_MULTIAGG":
        extra = [T.Tensor(np.ones((len(dst.index), 1)))]
        if spec.append == "one_and_invdeg":
            extra.append(T.Tensor(1.0 / (graph.degrees() + 1.0)[dst.index, None]))
        C = T.concat([C] + extra, axis=1)
    msgs = T.elementwise_mul(C, Hs) if spec.kind == "COMBC" else T.expand_outer(C, Hs)
    if spec.re_sum:
        return T.scatter_add_rows(_mlp(params, msgs, spec.mlp_depth), dst)
    return _mlp(params, T.scatter_add_rows(msgs, dst), spec.mlp_depth)


def expc_three_stage_forward(params, graph, H):
    """Dimension-wise route to the re_sum expanding convolution (1-layer MLP).

    For output dimension i, the active subset N_i(v) collects the
    neighbors whose pre-activation W1[i] vec(m_uv h_u^T) + b1[i] is
    positive. Aggregation runs per dimension over that subset only:
    the coefficient block M_vi times the local feature block, then the
    matching W1 row, plus |N_i(v)| times the bias.

    Pure numpy (no autodiff); returns (H_next, report) where the report
    exposes the per-node coefficient matrices and active subsets:
    report["coeff"][v] is the s x |N(v)| matrix, report["active"][(v, i)]
    the tuple of active neighbors.
    """
    W1, b1 = params["W1"].data, params["b1"].data
    d_out = W1.shape[0]
    out = np.zeros((graph.num_nodes, d_out))
    report = {"coeff": {}, "active": {}}
    for v, (M_v, H_v) in expc_local_blocks(params, graph, H).items():
        nbrs = neighborhood(graph, v)
        # row j: W1 vec(m_j h_j^T) + b1 for neighbour j, vec column-major
        expanded = (H_v[:, :, None] * M_v.T[:, None, :]).reshape(len(nbrs), -1)
        pre = expanded @ W1.T + b1.T
        report["coeff"][v] = M_v
        for i in range(d_out):
            active = [j for j in range(len(nbrs)) if pre[j, i] > 0.0]
            report["active"][(v, i)] = tuple(nbrs[j] for j in active)
            if not active:
                continue
            M_vi = M_v[:, active]                    # s x |N_i(v)|
            H_vi = H_v[active]                       # |N_i(v)| x d_in
            r_vi = M_vi @ H_vi                       # aggregate first,
            out[v, i] = W1[i] @ r_vi.reshape(-1, order="F") + len(active) * b1[i, 0]
    return out, report


def expc_local_blocks(params, graph, H):
    """Per-node (coefficient matrix, local feature block) from the tanh
    generator: M_v is s x |N(v)| with one column per neighbor, H_v is
    |N(v)| x d. Their product is the node's aggregated block
    sum_u m_uv h_u^T, the object whose rank the layer preserves."""
    Hd = H.data
    Wc, bc = params["Wc"].data, params["bc"].data
    blocks = {}
    for v in range(graph.num_nodes):
        nbrs = neighborhood(graph, v)
        M_v = np.column_stack([np.tanh(Wc @ np.concatenate([Hd[v], Hd[u]]) + bc[:, 0])
                               for u in nbrs])
        blocks[v] = (M_v, Hd[nbrs])
    return blocks


def layer_forward(spec, params, graph, H):
    """Dispatch a layer forward pass; returns a Tensor of node features."""
    if spec.kind == "GCN":
        return gcn_forward(params, graph, H)
    if spec.kind == "GIN0":
        return gin0_forward(params, graph, H)
    if spec.kind == "GAT_DEFAULT":
        return gat_default_forward(params, graph, H, spec.heads)
    if spec.kind == "GAT_EXPANDING":
        return gat_expanding_forward(params, graph, H, spec.heads)
    if spec.kind in RE_SUM_KINDS:
        return expc_forward(params, graph, H, spec)
    if spec.kind == "EXPC_THREE_STAGE":
        out, _ = expc_three_stage_forward(params, graph, H)
        return T.Tensor(out)  # inspection route: no gradients through it
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def readout(H_list, mode="SUM", segments=None):
    """Concatenate per-layer node features, then pool over nodes: into one
    row per graph of a node-to-graph Segments, or, with none given, over
    all of them into one row. A graph without nodes pools to zeros."""
    if not H_list:
        raise ValueError("readout needs at least one layer output")
    if mode not in ("SUM", "MEAN"):
        raise ValueError(f"unknown readout mode {mode!r}")
    stacked = H_list[0] if len(H_list) == 1 else T.concat(H_list, axis=1)
    if segments is None:
        segments = T.Segments(np.zeros(stacked.data.shape[0], dtype=np.intp), 1)
    pooled = T.scatter_add_rows(stacked, segments)
    if mode == "SUM":
        return pooled
    sizes = np.bincount(segments.index, minlength=segments.num_segments)
    return T.elementwise_mul(pooled, T.Tensor((1.0 / np.maximum(sizes, 1))[:, None]))


class Model:
    """A stack of at least one layer, layer-concatenated readout, and a
    linear head. The layers are trainable kinds: a kind of INSPECTION_KINDS
    raises ValueError."""

    def __init__(self, specs, seed=0, head_dim=1, readout_mode="SUM"):
        specs = _check_layers(specs)
        _check_count("head_dim", head_dim)
        if readout_mode not in ("SUM", "MEAN"):
            raise ValueError(f"unknown readout mode {readout_mode!r}")
        self.specs = specs
        self.seed = seed
        self.head_dim = head_dim
        self.readout_mode = readout_mode
        rng = np.random.default_rng(seed)
        self.layer_params = [init_layer_params(sp, rng) for sp in self.specs]
        head = _draw(_head_shapes(sum(sp.d_out for sp in self.specs), head_dim), rng)
        self.head_W, self.head_b = head["W"], head["b"]

    def named_params(self):
        out = []
        for i, params in enumerate(self.layer_params):
            for name in sorted(params):
                out.append((f"layer{i}.{name}", params[name]))
        out.append(("head.W", self.head_W))
        out.append(("head.b", self.head_b))
        return out

    def params(self):
        return [t for _, t in self.named_params()]

    def watch(self, tape):
        for t in self.params():
            tape.watch(t)

    def detach(self):
        """Take the parameters off the tape they were watched by, so later
        forwards build constants and record nothing."""
        for t in self.params():
            t.tape = None

    def zero_grad(self):
        for t in self.params():
            t.zero_grad()

    def forward(self, graph):
        """Graph-level predictions, one row per graph: (1, head_dim) for a
        Graph, (num_graphs, head_dim) for a GraphBatch."""
        H = T.Tensor(graph.node_features)
        outputs = []
        for spec, params in zip(self.specs, self.layer_params):
            H = layer_forward(spec, params, graph, H)
            outputs.append(H)
        pooled = readout(outputs, self.readout_mode, graph.node_graph)
        return T.add(T.matmul(pooled, self.head_W), self.head_b)


def _check_layers(specs):
    """The specs as a list; ValueError for layers no Model builds."""
    specs = list(specs)
    if not specs:
        raise ValueError("a model needs at least one layer spec")
    for spec in specs:
        if spec.kind in INSPECTION_KINDS:
            raise ValueError(f"layer kind {spec.kind} has no autodiff and cannot be trained")
    return specs


def _named_shapes(specs, head_dim):
    """{name: shape} of Model(specs, head_dim=head_dim)'s parameters, named
    as named_params names them: nothing is drawn."""
    shapes = {f"layer{i}.{name}": shape
              for i, sp in enumerate(specs) for name, shape, _ in param_shapes(sp)}
    head = _head_shapes(sum(sp.d_out for sp in specs), head_dim)
    shapes.update((f"head.{name}", shape) for name, shape, _ in head)
    return shapes


def model_param_count(specs):
    """Parameter count of Model(specs), whose head has one column, read off
    the shapes: no model is built and nothing is drawn."""
    return sum(math.prod(shape) for shape in _named_shapes(_check_layers(specs), 1).values())


def save_model(model, path):
    """JSON manifest + flat little-endian float64 blob with declared ordering."""
    names = model.named_params()
    manifest = {
        "seed": model.seed,
        "head_dim": model.head_dim,
        "readout_mode": model.readout_mode,
        "layers": [asdict(sp) for sp in model.specs],
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in names],
        "dtype": "<f8",
        "order": "C",
    }
    with open(f"{path}.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    blob = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes() for _, t in names)
    with open(f"{path}.bin", "wb") as fh:
        fh.write(blob)


def _check_manifest(manifest):
    """ValueError naming the first manifest field load_model cannot use."""
    missing = [k for k in ("seed", "head_dim", "readout_mode", "layers", "params",
                           "dtype", "order") if k not in manifest]
    if missing:
        raise ValueError(f"checkpoint manifest lacks field {missing[0]!r}")
    for key, written in (("dtype", "<f8"), ("order", "C")):
        if manifest[key] != written:
            raise ValueError(f"checkpoint manifest field {key!r} is {manifest[key]!r}; "
                             f"save_model writes {written!r}, the only layout read")
    if type(manifest["seed"]) is not int:
        raise ValueError(f"checkpoint manifest field 'seed' is {manifest['seed']!r}, not an int")
    for key in ("layers", "params"):
        if type(manifest[key]) is not list:
            raise ValueError(f"checkpoint manifest field {key!r} is not a list")
    names = [f.name for f in fields(LayerSpec)]
    required = [f.name for f in fields(LayerSpec) if f.default is MISSING]
    for i, sp in enumerate(manifest["layers"]):
        if type(sp) is not dict:
            raise ValueError(f"checkpoint layer {i} spec is {sp!r}, not an object")
        bad = [f"unknown field {k!r}" for k in sp if k not in names]
        bad += [f"no field {k!r}" for k in required if k not in sp]
        if bad:
            raise ValueError(f"checkpoint layer {i} spec has {bad[0]}")


def load_model(path):
    """Rebuild a save_model checkpoint. The manifest must carry every field
    save_model writes, with its little-endian float64, row-major blob
    layout, and its parameter list must name every parameter of the model
    its layer specs build, once, with the shape the specs give it. That and
    the blob's length are checked before the model is built, so specs
    edited to a huge width fail on a parameter's shape and draw nothing."""
    with open(f"{path}.json") as fh:
        manifest = json.load(fh)
    _check_manifest(manifest)
    specs = _check_layers(LayerSpec(**sp) for sp in manifest["layers"])
    _check_count("head_dim", manifest["head_dim"])
    expected = _named_shapes(specs, manifest["head_dim"])
    layout = []
    for entry in manifest["params"]:
        if not (isinstance(entry, dict) and set(entry) == {"name", "shape"}
                and isinstance(entry["name"], str) and isinstance(entry["shape"], list)):
            raise ValueError(f"checkpoint parameter entry {entry!r} is not a name "
                             f"and a shape list")
        name = entry["name"]
        if name not in expected:
            raise ValueError(f"checkpoint parameter {name!r} is unknown or repeated "
                             f"for its layer specs")
        shape = expected.pop(name)
        if tuple(entry["shape"]) != shape:
            raise ValueError(f"checkpoint parameter {name!r} has shape {entry['shape']}, "
                             f"its layer spec gives {list(shape)}")
        layout.append((name, shape))
    if expected:
        raise ValueError(f"checkpoint lacks parameters {sorted(expected)}")
    with open(f"{path}.bin", "rb") as fh:
        blob = fh.read()
    need = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(blob) != need:
        raise ValueError(f"parameter blob has {len(blob)} bytes; the manifest's parameters "
                         f"take {need}")
    model = Model(specs, seed=manifest["seed"], head_dim=manifest["head_dim"],
                  readout_mode=manifest["readout_mode"])
    by_name = dict(model.named_params())
    raw = np.frombuffer(blob, dtype="<f8")
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        by_name[name].data = raw[offset:offset + size].reshape(shape).copy()
        offset += size
    return model
