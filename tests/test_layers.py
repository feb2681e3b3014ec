import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agglab import analysis as A
from agglab import graphs as G
from agglab import layers as L
from agglab import tensor as T
from agglab import train as TR


def er_graph(seed, n=8, p=0.4, d=1):
    g = G.gen_er_triangle_dataset(1, n_nodes=n, p=p, seed=seed).graphs[0]
    if d != 1:
        rng = np.random.default_rng(seed + 1000)
        g = G.Graph(n, g.edges, rng.standard_normal((n, d)), target=g.target)
    return g


def fixed_coefficients(params, value):
    """params with the tanh coefficient generator pinned to a constant:
    Wc = 0, and bc = 20 for "ones" (np.tanh(20.0) is exactly 1.0) or
    bc = 0 for "zeros"."""
    return dict(params, Wc=T.Tensor(np.zeros_like(params["Wc"].data)),
                bc=T.Tensor(np.full_like(params["bc"].data, 20.0 if value == "ones" else 0.0)))


def set_identity_mlp(params, d):
    params["W1"].data = np.eye(d)
    params["b1"].data = np.zeros((d, 1))
    if "W2" in params:
        params["W2"].data = np.eye(d)
        params["b2"].data = np.zeros((d, 1))


ALL_KINDS = [
    L.LayerSpec("GCN", 3, 4),
    L.LayerSpec("GIN0", 3, 4),
    L.LayerSpec("GAT_DEFAULT", 4, 4, heads=2),
    L.LayerSpec("GAT_EXPANDING", 4, 4, heads=2),
    L.LayerSpec("EXPC", 3, 4, s=2, re_sum=True),
    L.LayerSpec("EXPC", 3, 4, s=2, re_sum=False),
    L.LayerSpec("COMBC", 3, 4, re_sum=True),
    L.LayerSpec("COMBC", 3, 4, re_sum=False),
    L.LayerSpec("EXPC_THREE_STAGE", 3, 4, s=2),
    L.LayerSpec("EXPC_MULTIAGG", 3, 4, s=2, append="one_and_invdeg"),
]


def test_layer_spec_validation():
    with pytest.raises(ValueError, match="unknown layer kind"):
        L.LayerSpec("SAGE", 4, 4)
    with pytest.raises(ValueError, match="square"):
        L.LayerSpec("GAT_DEFAULT", 3, 4)
    with pytest.raises(ValueError, match="s must be"):
        L.LayerSpec("EXPC", 3, 4, s=0)
    assert L.LayerSpec("EXPC_THREE_STAGE", 3, 4, s=2, mlp_depth=2).mlp_depth == 1


@pytest.mark.parametrize("kw, message", [
    (dict(d_in=0), "d_in must be an int >= 1"),
    (dict(d_out="3"), "d_out must be an int >= 1"),
    (dict(d_out=True), "d_out must be an int >= 1"),
    (dict(s=2.0), "s must be an int >= 1"),
    (dict(heads=0), "heads must be an int >= 1"),
    (dict(re_sum=1), "re_sum must be a bool"),
])
def test_layer_spec_rejects_a_width_or_flag_of_the_wrong_type(kw, message):
    for kind in ("GCN", "EXPC"):
        with pytest.raises(ValueError, match=message):
            L.LayerSpec(**{"kind": kind, "d_in": 3, "d_out": 3, **kw})


def test_model_rejects_an_unknown_readout_or_a_bad_head_dim():
    specs = [L.LayerSpec("GCN", 1, 2)]
    with pytest.raises(ValueError, match="readout mode 'FOO'"):
        L.Model(specs, readout_mode="FOO")
    for head_dim in (0, 1.0, False):
        with pytest.raises(ValueError, match="head_dim must be an int >= 1"):
            L.Model(specs, head_dim=head_dim)


def test_gcn_isolated_node_identity():
    g = G.Graph(1, [], np.array([[0.7, -0.3]]))
    spec = L.LayerSpec("GCN", 2, 2)
    params = L.init_layer_params(spec, np.random.default_rng(0))
    params["W"].data = np.eye(2)
    params["b"].data = np.zeros((1, 2))
    out = L.gcn_forward(params, g, T.Tensor(g.node_features))
    # single self-loop: normalization 1/1, so output is relu(feature)
    assert np.allclose(out.data, [[0.7, 0.0]])


def test_gcn_two_nodes_equal_features():
    f = np.array([0.5, 1.5])
    g = G.Graph(2, [(0, 1)], np.vstack([f, f]))
    spec = L.LayerSpec("GCN", 2, 2)
    params = L.init_layer_params(spec, np.random.default_rng(0))
    params["W"].data = np.eye(2)
    params["b"].data = np.zeros((1, 2))
    out = L.gcn_forward(params, g, T.Tensor(g.node_features))
    assert np.allclose(out.data[0], np.maximum(f, 0.0))
    assert np.allclose(out.data[0], out.data[1])


def test_gin0_isolated_node_is_mlp_of_self():
    g = G.Graph(1, [], np.array([[1.0, 2.0]]))
    spec = L.LayerSpec("GIN0", 2, 2)
    params = L.init_layer_params(spec, np.random.default_rng(1))
    out = L.gin0_forward(params, g, T.Tensor(g.node_features))
    x = g.node_features[0]
    hidden = np.maximum(params["W1"].data @ x + params["b1"].data[:, 0], 0.0)
    expected = params["W2"].data @ hidden + params["b2"].data[:, 0]
    assert np.allclose(out.data[0], expected)


def test_gin0_identity_mlp_triangle():
    g = G.Graph(3, [(0, 1), (1, 2), (0, 2)], np.eye(3))
    spec = L.LayerSpec("GIN0", 3, 3)
    params = L.init_layer_params(spec, np.random.default_rng(2))
    set_identity_mlp(params, 3)
    out = L.gin0_forward(params, g, T.Tensor(g.node_features))
    assert np.allclose(out.data, np.ones((3, 3)))


def test_gat_single_node_softmax_of_singleton():
    rng = np.random.default_rng(3)
    d, K = 4, 3
    g = G.Graph(1, [], rng.standard_normal((1, d)))
    spec = L.LayerSpec("GAT_DEFAULT", d, d, heads=K)
    params = L.init_layer_params(spec, rng)
    out = L.gat_default_forward(params, g, T.Tensor(g.node_features), K)
    expected = np.zeros(d)
    for k in range(K):
        expected += params[f"W{k}"].data @ g.node_features[0]
    expected = np.maximum(expected / K, 0.0)
    assert np.allclose(out.data[0], expected, atol=1e-12)


def test_gat_attention_rows_sum_to_one():
    rng = np.random.default_rng(4)
    d, K = 4, 2
    g = er_graph(5, n=7, d=d)
    spec = L.LayerSpec("GAT_DEFAULT", d, d, heads=K)
    params = L.init_layer_params(spec, rng)
    H = T.Tensor(g.node_features)
    src, dst = g.message_segments()
    for k in range(K):
        HW = T.matmul(H, T.transpose(params[f"W{k}"]))
        pair = T.concat([T.gather_rows(HW, dst), T.gather_rows(HW, src)], axis=1)
        logits = T.activation(T.matmul(pair, params[f"a{k}"]), "leakyrelu")
        alpha = T.segment_softmax(logits, dst)
        sums = np.zeros(g.num_nodes)
        np.add.at(sums, dst.index, alpha.data[:, 0])
        assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_gat_equivalence_k1_and_random():
    rng = np.random.default_rng(6)
    for trial in range(5):
        for K in (1, 4):
            d = 8
            g = er_graph(10 + trial, n=10, d=d)
            spec = L.LayerSpec("GAT_DEFAULT", d, d, heads=K)
            params = L.init_layer_params(spec, rng)
            H = T.Tensor(g.node_features)
            out1 = L.gat_default_forward(params, g, H, K)
            out2 = L.gat_expanding_forward(params, g, H, K)
            assert np.max(np.abs(out1.data - out2.data)) < 1e-10


def test_gat_split_attention_reproduces_logits():
    # a_k . [W_k h_v || W_k h_u] equals the two half-dots added
    rng = np.random.default_rng(7)
    d = 5
    a = rng.standard_normal(2 * d)
    W = rng.standard_normal((d, d))
    hv, hu = rng.standard_normal(d), rng.standard_normal(d)
    whole = a @ np.concatenate([W @ hv, W @ hu])
    split = a[:d] @ (W @ hv) + a[d:] @ (W @ hu)
    assert abs(whole - split) < 1e-12


def test_expc_bypass_ones_identity_mlp_reduces_to_sum():
    # s=1 with all-one coefficients and identity MLP: plain neighbor sum,
    # the same thing GIN0 computes with an identity MLP
    g = er_graph(8, n=6, d=3)
    spec = L.LayerSpec("EXPC", 3, 3, s=1, re_sum=True, mlp_depth=1)
    params = L.init_layer_params(spec, np.random.default_rng(8))
    params["W1"].data = np.eye(3)
    params["b1"].data = np.ones((3, 1)) * 10.0  # keep relu inactive-free
    params = fixed_coefficients(params, "ones")
    out = L.expc_forward(params, g, T.Tensor(g.node_features), spec)
    src, dst = g.message_index()
    sums = np.zeros((6, 3))
    np.add.at(sums, dst, g.node_features[src])
    counts = np.bincount(dst, minlength=6)[:, None]
    assert np.allclose(out.data, sums + 10.0 * counts)


def test_expc_isolated_node():
    rng = np.random.default_rng(9)
    g = G.Graph(1, [], rng.standard_normal((1, 3)))
    spec = L.LayerSpec("EXPC", 3, 2, s=2, re_sum=True, mlp_depth=1)
    params = L.init_layer_params(spec, rng)
    out = L.expc_forward(params, g, T.Tensor(g.node_features), spec)
    h = g.node_features[0]
    m = np.tanh(params["Wc"].data @ np.concatenate([h, h]) + params["bc"].data[:, 0])
    expanded = np.outer(m, h).reshape(-1, order="F")
    expected = np.maximum(params["W1"].data @ expanded + params["b1"].data[:, 0], 0.0)
    assert np.allclose(out.data[0], expected)


@pytest.mark.parametrize("d_in", [1, 3])
def test_expc_resum_constant_features_is_degree_times_one_mlp(d_in):
    # equal messages give every node |N(v)| copies of one MLP value, so the
    # per-neighbour nonlinearity adds nothing and the output has rank 1
    rng = np.random.default_rng(20 + d_in)
    g0 = er_graph(20, n=10, p=0.3)
    row = np.ones(d_in) if d_in == 1 else rng.standard_normal(d_in)
    g = G.Graph(10, g0.edges, np.tile(row, (10, 1)))
    spec = L.LayerSpec("EXPC", d_in, 5, s=2, re_sum=True)
    params = L.init_layer_params(spec, rng)
    for t in params.values():
        t.data = rng.standard_normal(t.data.shape)
    out = L.expc_forward(params, g, T.Tensor(g.node_features), spec)
    m = np.tanh(params["Wc"].data @ np.concatenate([row, row]) + params["bc"].data[:, 0])
    msg = np.outer(m, row).reshape(-1, order="F")
    hidden = np.maximum(params["W1"].data @ msg + params["b1"].data[:, 0], 0.0)
    mlp = params["W2"].data @ hidden + params["b2"].data[:, 0]
    degrees = g.degrees() + 1.0
    assert len(set(degrees)) > 1
    assert np.allclose(out.data, degrees[:, None] * mlp[None, :], rtol=0, atol=1e-12)
    assert A.numerical_rank(out.data) == 1


def test_three_stage_relu_always_active_is_linear():
    rng = np.random.default_rng(10)
    g = er_graph(11, n=6, d=2)
    spec = L.LayerSpec("EXPC_THREE_STAGE", 2, 3, s=2)
    params = L.init_layer_params(spec, rng)
    params["b1"].data = np.full((3, 1), 50.0)  # pre-activations all positive
    out, report = L.expc_three_stage_forward(params, g, T.Tensor(g.node_features))
    for v in range(g.num_nodes):
        nbrs = tuple(G.neighborhood(g, v))
        for i in range(3):
            assert report["active"][(v, i)] == nbrs
    # equals the plain linear sum plus |N(v)| * bias
    src, dst = g.message_index()
    pair = np.concatenate([g.node_features[dst], g.node_features[src]], axis=1)
    C = np.tanh(pair @ params["Wc"].data.T + params["bc"].data.T)
    E = (g.node_features[src][:, :, None] * C[:, None, :]).reshape(len(src), 4)
    lin = E @ params["W1"].data.T
    sums = np.zeros((6, 3))
    np.add.at(sums, dst, lin)
    counts = np.bincount(dst, minlength=6)[:, None]
    assert np.allclose(out, sums + counts * 50.0, atol=1e-10)


def test_three_stage_all_negative_is_zero():
    rng = np.random.default_rng(11)
    g = er_graph(12, n=5, d=2)
    spec = L.LayerSpec("EXPC_THREE_STAGE", 2, 3, s=1)
    params = L.init_layer_params(spec, rng)
    params["b1"].data = np.full((3, 1), -50.0)
    out, report = L.expc_three_stage_forward(params, g, T.Tensor(g.node_features))
    assert np.array_equal(out, np.zeros((5, 3)))
    assert all(active == () for active in report["active"].values())


def test_three_stage_matches_expc_and_activity_pattern():
    rng = np.random.default_rng(12)
    for trial in range(5):
        d_in, d_out, s = 3, 4, 2
        g = er_graph(20 + trial, n=7, d=d_in)
        spec = L.LayerSpec("EXPC", d_in, d_out, s=s, re_sum=True, mlp_depth=1)
        params = L.init_layer_params(spec, rng)
        H = T.Tensor(g.node_features)
        direct = L.expc_forward(params, g, H, spec)
        staged, report = L.expc_three_stage_forward(params, g, H)
        assert np.max(np.abs(direct.data - staged)) < 1e-10
        src, dst = g.message_index()
        pair = np.concatenate([H.data[dst], H.data[src]], axis=1)
        C = np.tanh(pair @ params["Wc"].data.T + params["bc"].data.T)
        E = (H.data[src][:, :, None] * C[:, None, :]).reshape(len(src), d_in * s)
        pre = E @ params["W1"].data.T + params["b1"].data.T
        for v in range(g.num_nodes):
            idx = np.where(dst == v)[0]
            for i in range(d_out):
                expected = tuple(int(src[e]) for e in idx if pre[e, i] > 0)
                assert report["active"][(v, i)] == expected


def test_combc_bypass_ones_identity_mlp_is_sum():
    g = er_graph(13, n=6, d=3)
    spec = L.LayerSpec("COMBC", 3, 3, re_sum=True, mlp_depth=1)
    params = L.init_layer_params(spec, np.random.default_rng(13))
    params["W1"].data = np.eye(3)
    params["b1"].data = np.full((3, 1), 10.0)
    params = fixed_coefficients(params, "ones")
    out = L.expc_forward(params, g, T.Tensor(g.node_features), spec)
    src, dst = g.message_index()
    sums = np.zeros((6, 3))
    np.add.at(sums, dst, g.node_features[src])
    counts = np.bincount(dst, minlength=6)[:, None]
    assert np.allclose(out.data, sums + 10.0 * counts)


def test_combc_coincides_with_expc_at_width_one():
    # d=1: both layers are scalar-weighted sums; matched parameters give
    # identical outputs
    rng = np.random.default_rng(14)
    g = er_graph(14, n=6, d=1)
    spec_c = L.LayerSpec("COMBC", 1, 2, re_sum=True, mlp_depth=2)
    spec_e = L.LayerSpec("EXPC", 1, 2, s=1, re_sum=True, mlp_depth=2)
    pc = L.init_layer_params(spec_c, rng)
    pe = L.init_layer_params(spec_e, rng)
    for name in pe:
        pe[name].data = pc[name].data.copy()
    H = T.Tensor(g.node_features)
    out_c = L.expc_forward(pc, g, H, spec_c)
    out_e = L.expc_forward(pe, g, H, spec_e)
    assert np.max(np.abs(out_c.data - out_e.data)) < 1e-12


def _combc_init_before_merge(spec, rng):
    """COMBC's own init branch from before the coefficient convolutions
    shared one body: the oracle the merged branch must reproduce."""
    u = L._uniform
    p = {"Wc": T.Tensor(u(rng, (spec.d_in, 2 * spec.d_in), 2 * spec.d_in)),
         "bc": T.Tensor(np.zeros((spec.d_in, 1))),
         "W1": T.Tensor(u(rng, (spec.d_out, spec.d_in), spec.d_in)),
         "b1": T.Tensor(np.zeros((spec.d_out, 1)))}
    if spec.mlp_depth == 2:
        p["W2"] = T.Tensor(u(rng, (spec.d_out, spec.d_out), spec.d_out))
        p["b2"] = T.Tensor(np.zeros((spec.d_out, 1)))
    return p


def _combc_forward_before_merge(params, graph, H, spec):
    """COMBC's own forward from before the merge, op for op."""
    src, dst = graph.message_segments()
    Hd, Hs = T.gather_rows(H, dst), T.gather_rows(H, src)
    pair = T.concat([Hd, Hs], axis=1)
    pre = T.add(T.matmul(pair, T.transpose(params["Wc"])), T.transpose(params["bc"]))
    C = T.activation(pre, "tanh")
    msgs = T.elementwise_mul(C, Hs)
    if spec.re_sum:
        return T.scatter_add_rows(L._mlp(params, msgs, spec.mlp_depth), dst)
    return L._mlp(params, T.scatter_add_rows(msgs, dst), spec.mlp_depth)


@pytest.mark.parametrize("re_sum", [True, False])
@pytest.mark.parametrize("mlp_depth", [1, 2])
@pytest.mark.parametrize("coeffs", [None, "ones", "zeros"])
def test_combc_merged_body_is_bitwise_the_old_route(re_sum, mlp_depth, coeffs):
    for seed in range(5):
        g = er_graph(40 + seed, n=7, d=3)
        spec = L.LayerSpec("COMBC", 3, 4, re_sum=re_sum, mlp_depth=mlp_depth)
        runs = []
        for init, forward in ((L.init_layer_params, L.expc_forward),
                              (_combc_init_before_merge, _combc_forward_before_merge)):
            params = init(spec, np.random.default_rng(seed))
            if coeffs is not None:
                params = fixed_coefficients(params, coeffs)
            tape = T.Tape()
            H = tape.param(g.node_features)
            for t in params.values():
                tape.watch(t)
            out = forward(params, g, H, spec)
            tape.backward(T.sum_all(T.elementwise_mul(out, out)))
            runs.append([out.data, H.grad] + [a for name in sorted(params)
                                              for a in (params[name].data, params[name].grad)])
        new, old = runs
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert (a is None and b is None) or np.array_equal(a, b)


def _expc_forward_with_bypass(params, graph, H, spec, bypass):
    """expc_forward's former bypass route, op for op: constant
    coefficients ("ones" or "zeros") in place of the tanh generator. The
    oracle of fixed_coefficients."""
    src, dst = graph.message_segments()
    Hs = T.gather_rows(H, src)
    C = T.Tensor(np.full((len(dst.index), len(params["bc"].data)), float(bypass == "ones")))
    if spec.kind == "EXPC_MULTIAGG":
        extra = [T.Tensor(np.ones((len(dst.index), 1)))]
        if spec.append == "one_and_invdeg":
            extra.append(T.Tensor(1.0 / (graph.degrees() + 1.0)[dst.index, None]))
        C = T.concat([C] + extra, axis=1)
    msgs = T.elementwise_mul(C, Hs) if spec.kind == "COMBC" else T.expand_outer(C, Hs)
    if spec.re_sum:
        return T.scatter_add_rows(L._mlp(params, msgs, spec.mlp_depth), dst)
    return L._mlp(params, T.scatter_add_rows(msgs, dst), spec.mlp_depth)


@pytest.mark.parametrize("kw", [
    dict(kind="EXPC", s=3), dict(kind="COMBC"),
    dict(kind="EXPC_MULTIAGG", s=2), dict(kind="EXPC_MULTIAGG", s=1, append="one_and_invdeg"),
], ids=lambda kw: "-".join(str(v) for v in kw.values()))
@pytest.mark.parametrize("re_sum", [True, False])
@pytest.mark.parametrize("mlp_depth", [1, 2])
@pytest.mark.parametrize("bypass", ["ones", "zeros"])
def test_fixed_coefficient_parameters_are_bitwise_the_bypass(kw, re_sum, mlp_depth, bypass):
    """The forward and the MLP gradients of expc_forward on pinned
    generator parameters equal the bypass route's bit for bit."""
    for seed in range(5):
        g = er_graph(60 + seed, n=7, d=3)
        spec = L.LayerSpec(d_in=3, d_out=4, re_sum=re_sum, mlp_depth=mlp_depth, **kw)
        params = fixed_coefficients(L.init_layer_params(spec, np.random.default_rng(seed)),
                                    bypass)
        runs = []
        for forward in (L.expc_forward,
                        lambda *a: _expc_forward_with_bypass(*a, bypass=bypass)):
            tape = T.Tape()
            for t in params.values():
                t.zero_grad()
                tape.watch(t)
            out = forward(params, g, T.Tensor(g.node_features), spec)
            tape.backward(T.sum_all(T.elementwise_mul(out, out)))
            runs.append([out.data] + [params[name].grad for name in sorted(params)
                                      if name not in ("Wc", "bc")])
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()


def test_multiagg_zero_bypass_recovers_sum_and_mean_channels():
    g = er_graph(15, n=6, d=2)
    spec = L.LayerSpec("EXPC_MULTIAGG", 2, 6, s=1, append="one_and_invdeg", mlp_depth=1)
    params = L.init_layer_params(spec, np.random.default_rng(15))
    # identity extraction with a large bias so relu stays in the linear region
    params["W1"].data = np.eye(6)
    params["b1"].data = np.full((6, 1), 100.0)
    params = fixed_coefficients(params, "zeros")
    out = L.expc_forward(params, g, T.Tensor(g.node_features), spec)
    src, dst = g.message_index()
    counts = np.bincount(dst, minlength=6).astype(float)
    sums = np.zeros((6, 2))
    np.add.at(sums, dst, g.node_features[src])
    means = sums / counts[:, None]
    # expanded layout j*s_eff+i with s_eff=3: channel i=1 is the 1-row (SUM),
    # i=2 the 1/|N(v)| row (MEAN); the learned row i=0 is zeroed
    for j in range(2):
        assert np.allclose(out.data[:, 3 * j + 1], sums[:, j] + 100.0 * counts)
        assert np.allclose(out.data[:, 3 * j + 2], means[:, j] + 100.0 * counts)


def test_multiagg_constant_row_raises_rank():
    rng = np.random.default_rng(16)
    g = er_graph(16, n=8, d=3)
    spec = L.LayerSpec("EXPC", 3, 4, s=2)
    params = L.init_layer_params(spec, rng)
    blocks = L.expc_local_blocks(params, g, T.Tensor(g.node_features))
    grew = 0
    for v, (M_v, _) in blocks.items():
        extended = np.vstack([M_v, np.ones((1, M_v.shape[1]))])
        r0, r1 = A.numerical_rank(M_v), A.numerical_rank(extended)
        assert r1 >= r0
        if r1 > r0:
            grew += 1
    assert grew > 0  # generic tanh rows exclude the constant direction


def test_readout_modes_and_widths():
    h1 = T.Tensor(np.arange(12.0).reshape(3, 4))
    h2 = T.Tensor(np.ones((3, 6)))
    out = L.readout([h1, h2], "SUM")
    assert out.data.shape == (1, 10)
    single = L.readout([T.Tensor(np.array([[2.0, 5.0]]))], "SUM")
    assert np.array_equal(single.data, [[2.0, 5.0]])
    mean = L.readout([h2], "MEAN")
    assert np.allclose(mean.data, np.ones((1, 6)))
    empty = L.readout([T.Tensor(np.zeros((0, 3)))], "MEAN")
    assert np.array_equal(empty.data, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="readout"):
        L.readout([], "SUM")


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: f"{s.kind}-resum{int(s.re_sum)}")
def test_permutation_invariance(spec):
    rng = np.random.default_rng(17)
    for trial in range(4):
        g = er_graph(30 + trial, n=7, d=spec.d_in)
        params = L.init_layer_params(spec, rng)
        perm = list(rng.permutation(7))
        g2 = G.relabel(g, perm)
        out1 = L.layer_forward(spec, params, g, T.Tensor(g.node_features))
        out2 = L.layer_forward(spec, params, g2, T.Tensor(g2.node_features))
        # node outputs permute along, readout is identical
        permuted = np.empty_like(out1.data)
        for v in range(7):
            permuted[perm[v]] = out1.data[v]
        assert np.max(np.abs(out2.data - permuted)) < 1e-10
        r1 = L.readout([out1], "SUM").data
        r2 = L.readout([out2], "SUM").data
        assert np.max(np.abs(r1 - r2)) < 1e-10


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: f"{s.kind}-resum{int(s.re_sum)}")
def test_regular_pair_indistinguishable(spec):
    # constant features on two 3-regular graphs: every layer gives equal
    # readouts even though the triangle counts differ
    k33, prism = G.gen_regular_pair()
    const = np.ones((6, spec.d_in))
    k33 = G.Graph(6, k33.edges, const)
    prism = G.Graph(6, prism.edges, const)
    params = L.init_layer_params(spec, np.random.default_rng(18))
    out1 = L.layer_forward(spec, params, k33, T.Tensor(k33.node_features))
    out2 = L.layer_forward(spec, params, prism, T.Tensor(prism.node_features))
    r1 = L.readout([out1], "SUM").data
    r2 = L.readout([out2], "SUM").data
    assert np.max(np.abs(r1 - r2)) < 1e-10
    assert G.count_triangles(k33) != G.count_triangles(prism)


GRAD_KINDS = [s for s in ALL_KINDS if s.kind != "EXPC_THREE_STAGE"]


@pytest.mark.parametrize("spec", GRAD_KINDS, ids=lambda s: f"{s.kind}-resum{int(s.re_sum)}")
def test_layer_gradients(spec):
    rng = np.random.default_rng(19)
    g = er_graph(40, n=6, d=spec.d_in)
    params = L.init_layer_params(spec, rng)
    H0 = g.node_features
    w = rng.standard_normal((6, spec.d_out))  # random readout weighting

    for name, theta in params.items():
        def f():
            tape = T.Tape()
            for t in params.values():
                tape.watch(t)
            out = L.layer_forward(spec, params, g, T.Tensor(H0))
            return T.sum_all(T.elementwise_mul(out, T.Tensor(w)))
        err = T.finite_diff_check(f, theta)
        assert err < 1e-4, f"{spec.kind} {name}: rel err {err}"


def test_three_stage_gradient_via_shared_function():
    # the staged route computes the same function as the direct route, so
    # its finite differences must match the direct route's autodiff
    rng = np.random.default_rng(20)
    g = er_graph(41, n=5, d=2)
    spec = L.LayerSpec("EXPC", 2, 3, s=2, re_sum=True, mlp_depth=1)
    params = L.init_layer_params(spec, rng)
    w = rng.standard_normal((5, 3))
    H0 = g.node_features

    for theta in params.values():
        def f():
            tape = T.Tape()
            for t in params.values():
                tape.watch(t)
            out3, _ = L.expc_three_stage_forward(params, g, T.Tensor(H0))
            staged = tape.watch(T.Tensor(out3))  # value from the staged route
            direct = L.expc_forward(params, g, T.Tensor(H0), spec)
            assert np.max(np.abs(direct.data - staged.data)) < 1e-10
            return T.sum_all(T.elementwise_mul(direct, T.Tensor(w)))
        assert T.finite_diff_check(f, theta) < 1e-4


def test_model_forward_and_checkpoint_roundtrip(tmp_path):
    specs = [L.LayerSpec("EXPC", 1, 8, s=2), L.LayerSpec("EXPC", 8, 8, s=2)]
    model = L.Model(specs, seed=3)
    g = er_graph(42, n=6, d=1)
    pred = model.forward(g)
    assert pred.data.shape == (1, 1)
    L.save_model(model, tmp_path / "ckpt")
    back = L.load_model(tmp_path / "ckpt")
    for (n1, t1), (n2, t2) in zip(model.named_params(), back.named_params()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
    assert np.array_equal(back.forward(g).data, pred.data)


TRAINABLE_KINDS = [k for k in L.LAYER_KINDS if k not in L.INSPECTION_KINDS]


@pytest.mark.parametrize("kind", TRAINABLE_KINDS)
def test_checkpoint_roundtrip_every_kind(kind, tmp_path):
    d = 4 if kind.startswith("GAT") else 3
    model = L.Model([L.LayerSpec(kind, 4, d, s=2, heads=2)], seed=1, head_dim=2)
    L.save_model(model, tmp_path / "ckpt")
    back = L.load_model(tmp_path / "ckpt")
    assert [(n, t.data.tobytes()) for n, t in back.named_params()] == \
        [(n, t.data.tobytes()) for n, t in model.named_params()]


def test_model_and_load_model_refuse_the_staged_kind(tmp_path):
    staged = L.LayerSpec("EXPC_THREE_STAGE", 2, 2)
    with pytest.raises(ValueError, match="EXPC_THREE_STAGE has no autodiff"):
        L.Model([staged])
    with pytest.raises(ValueError, match="EXPC_THREE_STAGE has no autodiff"):
        L.Model([L.LayerSpec("EXPC", 1, 2), staged])
    # an EXPC layer with a one-layer MLP has the staged kind's parameters
    L.save_model(L.Model([L.LayerSpec("EXPC", 2, 2, mlp_depth=1)]), tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    manifest["layers"][0]["kind"] = "EXPC_THREE_STAGE"
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="EXPC_THREE_STAGE has no autodiff"):
        L.load_model(tmp_path / "ckpt")


def _rewrite_manifest(path, edit):
    manifest = json.loads(path.read_text())
    edit(manifest["params"])
    path.write_text(json.dumps(manifest))


def test_load_model_checks_the_manifest_against_the_specs(tmp_path):
    model = L.Model([L.LayerSpec("EXPC", 2, 4, s=1)], seed=0)
    L.save_model(model, tmp_path / "ckpt")
    manifest = tmp_path / "ckpt.json"
    original = manifest.read_text()

    def swap_w1(params):
        entry = next(e for e in params if e["name"] == "layer0.W1")
        assert entry["shape"] == [4, 2]
        entry["shape"] = [2, 4]

    _rewrite_manifest(manifest, swap_w1)
    with pytest.raises(ValueError, match=r"'layer0.W1'.*\[2, 4\].*\[4, 2\]"):
        L.load_model(tmp_path / "ckpt")

    manifest.write_text(original)
    _rewrite_manifest(manifest, lambda params: params[0].update(name="layer0.W9"))
    with pytest.raises(ValueError, match="'layer0.W9'"):
        L.load_model(tmp_path / "ckpt")

    manifest.write_text(original)
    _rewrite_manifest(manifest, lambda params: params.pop())
    with pytest.raises(ValueError, match="lacks parameters.*head.b"):
        L.load_model(tmp_path / "ckpt")


@st.composite
def checkpoint_models(draw):
    """A model of one or two trainable layers whose parameters hold
    arbitrary float64 bit patterns (NaNs, infinities, signed zeros)."""
    d = draw(st.integers(1, 4))  # attention layers need d_in == d_out
    specs = [L.LayerSpec(kind, d, d, s=draw(st.integers(1, 3)), heads=draw(st.integers(1, 2)),
                         mlp_depth=draw(st.sampled_from([1, 2])),
                         append=draw(st.sampled_from(["one", "one_and_invdeg"])))
             for kind in draw(st.lists(st.sampled_from(TRAINABLE_KINDS), min_size=1, max_size=2))]
    model = L.Model(specs, seed=draw(st.integers(0, 2**16)), head_dim=draw(st.integers(1, 3)))
    for _, t in model.named_params():
        bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=t.data.size,
                             max_size=t.data.size))
        t.data = np.array(bits, dtype=np.uint64).view(np.float64).reshape(t.data.shape)
    return model


@settings(max_examples=60, deadline=None)
@given(checkpoint_models())
def test_checkpoint_roundtrip_is_bitwise(model):
    with tempfile.TemporaryDirectory() as tmp:
        L.save_model(model, Path(tmp) / "ckpt")
        back = L.load_model(Path(tmp) / "ckpt")
    assert back.specs == model.specs and back.head_dim == model.head_dim
    assert [(n, t.data.shape, t.data.tobytes()) for n, t in back.named_params()] == \
        [(n, t.data.shape, t.data.tobytes()) for n, t in model.named_params()]


def _corrupt(ckpt, how, draw):
    """Damage a saved checkpoint one way: the blob cut short or run long,
    one parameter's shape edited, or one parameter name removed or repeated."""
    blob_path, manifest_path = Path(f"{ckpt}.bin"), Path(f"{ckpt}.json")
    blob = blob_path.read_bytes()
    manifest = json.loads(manifest_path.read_text())
    params = manifest["params"]
    k = draw(st.integers(0, len(params) - 1))
    if how == "truncate":
        blob_path.write_bytes(blob[:len(blob) - draw(st.integers(1, len(blob)))])
    elif how == "extend":
        blob_path.write_bytes(blob + bytes(draw(st.integers(1, 17))))
    elif how == "shape":
        shape = params[k]["shape"]
        if draw(st.booleans()) or not shape:
            params[k]["shape"] = shape + [1]
        else:
            shape[draw(st.integers(0, len(shape) - 1))] += draw(st.integers(1, 3))
    elif how == "remove":
        params.pop(k)
    else:  # repeat
        params.insert(draw(st.integers(0, len(params))), dict(params[k]))
    manifest_path.write_text(json.dumps(manifest))


CORRUPTIONS = ["truncate", "extend", "shape", "remove", "repeat"]


@settings(max_examples=100, deadline=None)
@given(checkpoint_models(), st.sampled_from(CORRUPTIONS), st.data())
def test_a_corrupted_checkpoint_raises_value_error(model, how, data):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        L.save_model(model, ckpt)
        _corrupt(ckpt, how, data.draw)
        with pytest.raises(ValueError):
            L.load_model(ckpt)


@pytest.mark.parametrize("how", CORRUPTIONS)
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_a_corrupted_checkpoint_exits_1_through_the_cli(how, data):
    from agglab import cli
    argv = ["analyze-rank", "--count", "3", "--checkpoint"]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt"
        L.save_model(L.Model([L.LayerSpec("EXPC", 1, 3, s=2)]), ckpt)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + [str(ckpt)]) == 0
        _corrupt(ckpt, how, data.draw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(argv + [str(ckpt)]) == 1
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_param_shapes_follow_equations():
    spec = L.LayerSpec("EXPC", 5, 7, s=3, mlp_depth=2)
    p = L.init_layer_params(spec, np.random.default_rng(0))
    assert p["Wc"].data.shape == (3, 10)   # (s, 2*d_in)
    assert p["bc"].data.shape == (3, 1)    # (s, 1)
    assert p["W1"].data.shape == (7, 15)   # (d_out, s*d_in)
    gat = L.init_layer_params(L.LayerSpec("GAT_DEFAULT", 6, 6, heads=2),
                              np.random.default_rng(0))
    assert gat["W0"].data.shape == (6, 6)
    assert gat["a1"].data.shape == (12, 1)


def _init_layer_params_per_kind(spec, rng):
    """init_layer_params as it was written before param_shapes: one branch
    per kind. The oracle that the shape list draws the same parameters."""
    def uniform(shape, fan_in):
        return T.Tensor(rng.uniform(-1 / np.sqrt(fan_in), 1 / np.sqrt(fan_in), size=shape))
    p = {}
    if spec.kind == "GCN":
        p["W"] = uniform((spec.d_in, spec.d_out), spec.d_in)
        p["b"] = T.Tensor(np.zeros((1, spec.d_out)))
    elif spec.kind == "GIN0":
        p["W1"] = uniform((spec.d_out, spec.d_in), spec.d_in)
        p["b1"] = T.Tensor(np.zeros((spec.d_out, 1)))
        p["W2"] = uniform((spec.d_out, spec.d_out), spec.d_out)
        p["b2"] = T.Tensor(np.zeros((spec.d_out, 1)))
    elif spec.kind in ("GAT_DEFAULT", "GAT_EXPANDING"):
        d = spec.d_in
        for k in range(spec.heads):
            p[f"W{k}"] = uniform((d, d), d)
            p[f"a{k}"] = uniform((2 * d, 1), 2 * d)
    else:
        if spec.kind == "COMBC":
            rows, mlp_in = spec.d_in, spec.d_in
        else:
            appended = 0 if spec.kind != "EXPC_MULTIAGG" else 1 if spec.append == "one" else 2
            rows, mlp_in = spec.s, (spec.s + appended) * spec.d_in
        p["Wc"] = uniform((rows, 2 * spec.d_in), 2 * spec.d_in)
        p["bc"] = T.Tensor(np.zeros((rows, 1)))
        p["W1"] = uniform((spec.d_out, mlp_in), mlp_in)
        p["b1"] = T.Tensor(np.zeros((spec.d_out, 1)))
        if spec.mlp_depth == 2:
            p["W2"] = uniform((spec.d_out, spec.d_out), spec.d_out)
            p["b2"] = T.Tensor(np.zeros((spec.d_out, 1)))
    return p


@pytest.mark.parametrize("kind", L.LAYER_KINDS)
@pytest.mark.parametrize("mlp_depth", [1, 2])
@pytest.mark.parametrize("append", ["one", "one_and_invdeg"])
def test_shape_list_draws_the_per_kind_parameters_bitwise(kind, mlp_depth, append):
    d_out = 3 if kind.startswith("GAT") else 4
    spec = L.LayerSpec(kind, 3, d_out, s=2, heads=2, mlp_depth=mlp_depth, append=append)
    for seed in range(5):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        new = L.init_layer_params(spec, rng_new)
        old = _init_layer_params_per_kind(spec, rng_old)
        assert [(n, t.data.shape, t.data.tobytes()) for n, t in new.items()] == \
            [(n, t.data.shape, t.data.tobytes()) for n, t in old.items()]
        assert rng_new.random() == rng_old.random()  # the same number of draws
        assert [(n, shape) for n, shape, _ in L.param_shapes(spec)] == \
            [(n, t.data.shape) for n, t in old.items()]


@st.composite
def model_specs(draw):
    """One to three trainable layers chained on their widths, every field drawn."""
    specs, d = [], draw(st.integers(1, 4))
    for kind in draw(st.lists(st.sampled_from(TRAINABLE_KINDS), min_size=1, max_size=3)):
        d_out = d if kind.startswith("GAT") else draw(st.integers(1, 5))
        specs.append(L.LayerSpec(kind, d, d_out, s=draw(st.integers(1, 3)),
                                 heads=draw(st.integers(1, 3)), re_sum=draw(st.booleans()),
                                 mlp_depth=draw(st.sampled_from([1, 2])),
                                 append=draw(st.sampled_from(["one", "one_and_invdeg"]))))
        d = d_out
    return specs


@settings(max_examples=80, deadline=None)
@given(model_specs())
def test_model_param_count_is_the_built_models_size(specs):
    model = L.Model(specs)
    assert L.model_param_count(specs) == sum(t.data.size for t in model.params())


def test_model_param_count_rejects_what_model_rejects():
    for specs, message in (([], "at least one layer"),
                           ([L.LayerSpec("EXPC_THREE_STAGE", 2, 2)], "no autodiff")):
        for build in (L.Model, L.model_param_count):
            with pytest.raises(ValueError, match=message):
                build(specs)


def test_the_kind_tuples_name_the_kinds_that_read_s_and_re_sum():
    """A kind of S_KINDS changes its parameter shapes with s; a kind of
    RE_SUM_KINDS changes its forward with re_sum; no other kind does either."""
    g = G.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                np.random.default_rng(0).normal(size=(4, 3)))
    for kind in L.LAYER_KINDS:
        shapes = {s: L.param_shapes(L.LayerSpec(kind, 3, 3, s=s)) for s in (1, 2)}
        assert (shapes[1] != shapes[2]) == (kind in L.S_KINDS), kind
        if kind in L.INSPECTION_KINDS:
            assert kind not in L.RE_SUM_KINDS
            continue
        outs = []
        for re_sum in (True, False):
            spec = L.LayerSpec(kind, 3, 3, s=2, re_sum=re_sum)
            params = L.init_layer_params(spec, np.random.default_rng(1))
            outs.append(L.layer_forward(spec, params, g, T.Tensor(g.node_features)).data)
        assert (not np.array_equal(*outs)) == (kind in L.RE_SUM_KINDS), kind


# Taped ops of one forward with taped input features on a 6-node graph:
# the counts the single-purpose bias and scaling ops recorded, one op each.
TAPED_OPS = [
    (dict(kind="GCN"), 6),
    (dict(kind="GIN0"), 11),
    (dict(kind="GAT_DEFAULT", heads=3), 37),
    (dict(kind="GAT_EXPANDING", heads=3), 41),
    (dict(kind="EXPC", s=2), 19),
    (dict(kind="EXPC", s=2, re_sum=False), 19),
    (dict(kind="EXPC", s=2, mlp_depth=1), 15),
    (dict(kind="EXPC_MULTIAGG", s=2, append="one_and_invdeg"), 20),
    (dict(kind="COMBC"), 19),
    (dict(kind="COMBC", re_sum=False), 19),
]


@pytest.mark.parametrize("kw, ops", TAPED_OPS)
def test_each_kind_records_its_pinned_number_of_tape_ops(kw, ops):
    g = G.random_featured_graph(np.random.default_rng(0), 6, 0.5, 3)
    spec = L.LayerSpec(d_in=3, d_out=3, **kw)
    params = L.init_layer_params(spec, np.random.default_rng(1))
    tape = T.Tape()
    for t in params.values():
        tape.watch(t)
    L.layer_forward(spec, params, g, tape.param(g.node_features.copy()))
    assert len(tape._ops) == ops


@pytest.mark.parametrize("readout, ops", [("SUM", 29), ("MEAN", 30)])
def test_the_model_loss_records_its_pinned_number_of_tape_ops(readout, ops):
    g = G.random_featured_graph(np.random.default_rng(0), 6, 0.5, 3)
    g.target = 1.0
    model = L.Model([L.LayerSpec("GCN", 3, 4), L.LayerSpec("EXPC", 4, 2, s=2)],
                    seed=0, readout_mode=readout)
    for graph in (g, G.GraphBatch([g, g])):
        tape = T.Tape()
        model.watch(tape)
        TR.graph_loss(model, graph, "MSE")
        assert len(tape._ops) == ops
