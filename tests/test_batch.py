"""Disjoint-union batches: structure, message groups, and the batched loss
and gradients against the per-graph route they replace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agglab import graphs as G
from agglab import layers as L
from agglab import tensor as T
from agglab import train as TR

RTOL = 1e-12


def random_graph(rng, n, p, d, target):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if rng.random() < p]
    return G.Graph(n, edges, rng.standard_normal((n, d)), target=target)


def assert_close(got, want, scale=None):
    """Equal to RTOL of scale, by default the largest entry of want: the
    routes differ only in the order they add the same terms."""
    if scale is None:
        scale = float(np.max(np.abs(want), initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= RTOL * max(scale, 1e-300), (got, want)


# two-layer stacks, d is the node feature width
MODEL_SPECS = {
    "GCN": lambda d: [L.LayerSpec("GCN", d, 4), L.LayerSpec("GCN", 4, 3)],
    "GIN0": lambda d: [L.LayerSpec("GIN0", d, 4), L.LayerSpec("GIN0", 4, 3)],
    "EXPC": lambda d: [L.LayerSpec("EXPC", d, 4, s=2), L.LayerSpec("EXPC", 4, 3, s=2)],
    "EXPC_sumfirst": lambda d: [L.LayerSpec("EXPC", d, 4, s=2, re_sum=False),
                                L.LayerSpec("EXPC", 4, 3, s=2, re_sum=False)],
    "EXPC_MULTIAGG": lambda d: [
        L.LayerSpec("EXPC_MULTIAGG", d, 4, s=2, append="one_and_invdeg"),
        L.LayerSpec("EXPC_MULTIAGG", 4, 3, s=1)],
    "COMBC": lambda d: [L.LayerSpec("COMBC", d, 4), L.LayerSpec("COMBC", 4, 3, re_sum=False)],
    "GAT_DEFAULT": lambda d: [L.LayerSpec("GAT_DEFAULT", d, d, heads=2)] * 2,
    "GAT_EXPANDING": lambda d: [L.LayerSpec("GAT_EXPANDING", d, d, heads=2)] * 2,
}


def loss_and_grads(model, graphs, loss_kind):
    """Loss and parameter gradients on one tape over graphs (a Graph or a
    GraphBatch)."""
    model.zero_grad()
    tape = T.Tape()
    model.watch(tape)
    loss = TR.graph_loss(model, graphs, loss_kind)
    tape.backward(loss)
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in model.params()]
    model.detach()
    return loss.data.item(), grads


@given(kind=st.sampled_from(sorted(MODEL_SPECS)),
       readout=st.sampled_from(["SUM", "MEAN"]),
       loss_kind=st.sampled_from(["MSE", "MAE", "cross_entropy"]),
       sizes=st.lists(st.integers(1, 8), min_size=1, max_size=6),
       p=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       d=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_batched_loss_and_gradients_equal_the_per_graph_sums(
        kind, readout, loss_kind, sizes, p, d, seed):
    rng = np.random.default_rng(seed)
    classes = 3 if loss_kind == "cross_entropy" else 1

    def target():
        return float(rng.integers(0, classes)) if classes > 1 else float(rng.normal())

    graphs = [random_graph(rng, n, p, d, target()) for n in sizes]
    model = L.Model(MODEL_SPECS[kind](d), seed=seed % 1000, head_dim=classes,
                    readout_mode=readout)

    want_loss, want, size = 0.0, 0.0, 0.0
    for g in graphs:
        value, grads = loss_and_grads(model, g, loss_kind)
        flat = np.concatenate([a.ravel() for a in grads])
        want_loss, want, size = want_loss + value, want + flat, size + np.abs(flat)
    got_loss, got = loss_and_grads(model, G.GraphBatch(graphs), loss_kind)

    assert_close(np.array(got_loss), np.array(want_loss))
    # relative to the size of the terms the gradient adds up: an entry
    # whose terms cancel is zero on one route and 1e-16 on the other
    assert_close(np.concatenate([a.ravel() for a in got]), want, scale=np.max(size))


def test_batch_forward_rows_equal_single_graph_forwards():
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, n, 0.5, 2, 0.0) for n in (3, 1, 7, 5)]
    model = L.Model(MODEL_SPECS["EXPC"](2), seed=1)
    rows = model.forward(G.GraphBatch(graphs)).data
    assert rows.shape == (4, 1)
    for row, g in zip(rows, graphs):
        assert_close(row, model.forward(g).data[0])


def test_graph_batch_offsets_and_concatenates():
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, n, 0.5, 2, float(k)) for k, n in enumerate((4, 1, 6))]
    batch = G.GraphBatch(graphs)
    assert batch.num_graphs == 3 and batch.num_nodes == 11
    assert list(batch.node_offsets) == [0, 4, 5, 11]
    assert batch.targets == [0.0, 1.0, 2.0]
    assert np.array_equal(batch.node_features, np.vstack([g.node_features for g in graphs]))
    assert np.array_equal(batch.degrees(), np.concatenate([g.degrees() for g in graphs]))
    assert np.array_equal(batch.node_graph.index, [0] * 4 + [1] + [2] * 6)
    by_src, by_dst = batch.message_segments()
    src, dst = by_src.index, by_dst.index
    want_src = np.concatenate([g.message_index()[0] + off
                               for g, off in zip(graphs, batch.node_offsets)])
    want_dst = np.concatenate([g.message_index()[1] + off
                               for g, off in zip(graphs, batch.node_offsets)])
    assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)
    assert np.array_equal(by_src.order, np.argsort(src, kind="stable"))


def test_neighborhood_and_staged_route_on_a_batch_equal_the_per_graph_results():
    rng = np.random.default_rng(8)
    graphs = [random_graph(rng, n, 0.5, 2, 0.0) for n in (3, 1, 6, 4, 5)]
    batch = G.GraphBatch(graphs)
    spec = L.LayerSpec("EXPC_THREE_STAGE", 2, 3, s=2)
    params = L.init_layer_params(spec, rng)
    got, report = L.expc_three_stage_forward(params, batch, T.Tensor(batch.node_features))
    rows = []
    for g, off in zip(graphs, batch.node_offsets.tolist()):
        out, want = L.expc_three_stage_forward(params, g, T.Tensor(g.node_features))
        rows.append(out)
        for v in range(g.num_nodes):
            assert G.neighborhood(batch, off + v) == [off + u for u in G.neighborhood(g, v)]
            assert np.array_equal(report["coeff"][off + v], want["coeff"][v])
            for i in range(spec.d_out):
                assert report["active"][(off + v, i)] == tuple(off + u
                                                               for u in want["active"][(v, i)])
    assert np.array_equal(got, np.vstack(rows))


def test_graph_batch_rejects_empty_and_mixed_widths():
    with pytest.raises(ValueError, match="at least one graph"):
        G.GraphBatch([])
    a = G.Graph(2, [(0, 1)], np.ones((2, 1)))
    b = G.Graph(2, [(0, 1)], np.ones((2, 3)))
    with pytest.raises(ValueError, match="feature width"):
        G.GraphBatch([a, b])


def test_message_groups_fill_the_budget_in_order(monkeypatch):
    monkeypatch.setattr(TR, "MESSAGE_BUDGET", 40)
    graphs = G.gen_er_triangle_dataset(30, n_nodes=8, p=0.4, seed=4).graphs
    big = G.gen_er_triangle_dataset(1, n_nodes=12, p=0.6, seed=5).graphs[0]
    graphs.insert(7, big)
    assert len(big.message_index()[0]) > 40
    groups = TR.message_groups(graphs)
    msgs = [len(g.message_index()[0]) for g in graphs]
    start = 0
    for grp in groups:
        stop = start + grp.num_graphs
        assert grp.targets == [g.target for g in graphs[start:stop]]
        size = sum(msgs[start:stop])
        assert size <= 40 or grp.num_graphs == 1
        if stop < len(graphs):  # the next graph did not fit
            assert size + msgs[stop] > 40
        start = stop
    assert start == len(graphs)


def test_a_group_of_one_graph_is_the_graph_itself(monkeypatch):
    monkeypatch.setattr(TR, "MESSAGE_BUDGET", 40)
    rng = np.random.default_rng(9)
    small = [random_graph(rng, 3, 0.5, 2, 1.0) for _ in range(2)]
    big = random_graph(rng, 9, 0.8, 2, 4.0)
    assert len(big.message_index()[0]) > 40
    groups = TR.message_groups(small + [big] + small)
    assert [type(grp) for grp in groups] == [G.GraphBatch, G.Graph, G.GraphBatch]
    assert groups[1] is big and big.num_graphs == 1
    model = L.Model(MODEL_SPECS["EXPC"](2), seed=3)
    loss, grads = loss_and_grads(model, big, "MSE")
    batch_loss, batch_grads = loss_and_grads(model, G.GraphBatch([big]), "MSE")
    assert loss == batch_loss
    assert all(np.array_equal(a, b) for a, b in zip(grads, batch_grads))


def test_training_does_not_depend_on_the_grouping(monkeypatch):
    ds = G.gen_er_triangle_dataset(40, n_nodes=7, p=0.4, seed=6)
    specs = TR.triangle_model_specs("EXPC", 4, s=2)
    cfg = TR.TrainConfig(epochs=2, batch_size=8, lr=0.01, loss="MSE", seed=2)
    model_a, metrics_a = TR.train(specs, ds, cfg)
    monkeypatch.setattr(TR, "MESSAGE_BUDGET", 1)  # one graph per tape
    model_b, metrics_b = TR.train(specs, ds, cfg)
    assert np.allclose(metrics_a.train_loss, metrics_b.train_loss, rtol=1e-10, atol=0)
    for (_, a), (_, b) in zip(model_a.named_params(), model_b.named_params()):
        assert np.allclose(a.data, b.data, rtol=1e-10, atol=1e-12)
