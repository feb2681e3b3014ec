import csv

import numpy as np
import pytest

from agglab import graphs as G
from agglab import layers as L
from agglab import tensor as T
from agglab import train as TR


def tiny_dataset(count=30, seed=0):
    return G.gen_er_triangle_dataset(count, n_nodes=6, p=0.4, seed=seed)


def test_adam_first_step_closed_form():
    p = T.Tensor(np.zeros((2, 2)))
    g = np.array([[0.3, -2.0], [0.0, 5.0]])
    state = TR.adam_init([p])
    TR.adam_step([p], [g], state, lr=0.1)
    # bias-corrected first step is -lr * g / (|g| + eps) ~ -lr * sign(g)
    expected = -0.1 * g / (np.abs(g) + 1e-8)
    expected[g == 0] = 0.0
    assert np.allclose(p.data, expected, atol=1e-9)


def test_adam_zero_gradient_no_change():
    p = T.Tensor(np.ones((3, 1)))
    state = TR.adam_init([p])
    TR.adam_step([p], [np.zeros((3, 1))], state, lr=0.5)
    assert np.array_equal(p.data, np.ones((3, 1)))


def test_adam_shape_mismatch():
    p = T.Tensor(np.ones((3, 1)))
    with pytest.raises(ValueError, match="shape"):
        TR.adam_step([p], [np.ones((2, 2))], TR.adam_init([p]), lr=0.1)


def test_adam_converges_on_quadratic_bowl():
    rng = np.random.default_rng(0)
    theta = T.Tensor(rng.standard_normal((5, 1)))
    theta.data /= np.linalg.norm(theta.data)
    state = TR.adam_init([theta])
    for _ in range(200):
        TR.adam_step([theta], [2.0 * theta.data], state, lr=0.05)
    assert np.linalg.norm(theta.data) < 1e-3


def test_step_lr_schedule():
    cfg = TR.TrainConfig(lr=0.001, lr_step_size=10, lr_decay=0.8)
    assert TR.step_lr(0, cfg) == 0.001
    assert abs(TR.step_lr(10, cfg) - 0.0008) < 1e-15
    assert abs(TR.step_lr(25, cfg) - 0.001 * 0.8 ** 2) < 1e-15


def test_train_config_validation():
    with pytest.raises(ValueError, match="lr_decay"):
        TR.TrainConfig(lr_decay=0.0)
    with pytest.raises(ValueError, match="epochs"):
        TR.TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="loss"):
        TR.TrainConfig(loss="hinge")


def test_train_zero_lr_leaves_params_unchanged():
    ds = tiny_dataset()
    specs = TR.triangle_model_specs("EXPC", 4, s=1)
    cfg = TR.TrainConfig(epochs=1, lr=0.0, seed=7)
    reference = L.Model(specs, seed=7)
    model, metrics = TR.train(specs, ds, cfg)
    for (_, a), (_, b) in zip(model.named_params(), reference.named_params()):
        assert np.array_equal(a.data, b.data)
    # loss equals the untouched-init loss
    init_loss = TR._mean_loss(reference, ds.subset("train"), "MAE")
    assert abs(metrics.train_loss[0] - init_loss) < 1e-12


def test_train_deterministic_across_runs():
    ds = tiny_dataset()
    specs = TR.triangle_model_specs("GIN0", 4)
    cfg = TR.TrainConfig(epochs=3, lr=0.01, seed=11)
    _, m1 = TR.train(specs, ds, cfg)
    _, m2 = TR.train(specs, ds, cfg)
    assert m1.train_loss == m2.train_loss
    assert m1.valid_loss == m2.valid_loss
    assert m1.test_metric == m2.test_metric


def test_train_empty_split_rejected():
    ds = tiny_dataset()
    empty = G.Dataset(ds.graphs, {"train": [], "valid": [],
                                  "test": list(range(len(ds.graphs)))})
    with pytest.raises(ValueError, match="empty train split"):
        TR.train(TR.triangle_model_specs("GCN", 4), empty, TR.TrainConfig(epochs=1))


@pytest.mark.parametrize("target", ["three", [1, 2], True, float("nan"), float("inf")])
def test_train_rejects_a_target_that_is_not_a_finite_number(target):
    ds = tiny_dataset()
    ds.graphs[ds.split["test"][1]].target = target
    with pytest.raises(ValueError, match=rf"test split: graph {ds.split['test'][1]} has "
                                         rf"target .* not a finite number"):
        TR.train(TR.triangle_model_specs("GCN", 4), ds, TR.TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverged_reports_position():
    ds = tiny_dataset()
    specs = TR.triangle_model_specs("GIN0", 4)
    cfg = TR.TrainConfig(epochs=3, lr=1e160, loss="MSE", batch_size=4, seed=0)
    with pytest.raises(TR.TrainingDiverged, match="epoch"):
        TR.train(specs, ds, cfg)


def test_evaluate_constant_predictor_on_constant_targets():
    graphs = tiny_dataset().graphs
    for g in graphs:
        g.target = 2.5
    ds = G.Dataset(graphs)
    specs = TR.triangle_model_specs("GCN", 3)
    model = L.Model(specs, seed=0)
    for p in model.params():
        p.data = np.zeros_like(p.data)
    model.head_b.data = np.array([[2.5]])
    assert TR.evaluate(model, ds.graphs) == 0.0
    assert TR.evaluate(model, ds.graphs) == TR.evaluate(model, ds.graphs)


def test_evaluate_rejects_regression_with_a_wide_head():
    model = L.Model(TR.triangle_model_specs("GCN", 3), seed=0, head_dim=2)
    with pytest.raises(ValueError, match="head_dim 1"):
        TR.evaluate(model, tiny_dataset().graphs, "MAE")


def test_best_validation_checkpoint_returned():
    ds = tiny_dataset(60, seed=3)
    specs = TR.triangle_model_specs("EXPC", 4, s=1)
    cfg = TR.TrainConfig(epochs=8, lr=0.02, seed=5)
    model, metrics = TR.train(specs, ds, cfg)
    best_epoch = int(np.argmin(metrics.valid_loss))
    # re-run to that epoch and compare valid losses at the checkpoint
    assert min(metrics.valid_loss) == metrics.valid_loss[best_epoch]
    held = TR._mean_loss(model, ds.subset("valid"), "MAE")
    assert abs(held - metrics.valid_loss[best_epoch]) < 1e-9


def test_cross_entropy_training_smoke():
    graphs = tiny_dataset(40, seed=9).graphs
    for g in graphs:
        g.target = 0 if g.target == 0 else 1
    n = len(graphs)
    ds = G.Dataset(graphs, {"train": list(range(0, 30)),
                            "valid": list(range(30, 34)),
                            "test": list(range(34, n))})
    specs = TR.triangle_model_specs("GIN0", 4)
    cfg = TR.TrainConfig(epochs=3, lr=0.01, loss="cross_entropy", seed=1)
    model, metrics = TR.train(specs, ds, cfg, head_dim=2)
    assert 0.0 <= metrics.test_metric <= 1.0
    assert all(np.isfinite(v) for v in metrics.train_loss)


def test_constant_baseline():
    ds = tiny_dataset(50, seed=2)
    mae, mean = TR.constant_baseline_mae(ds)
    train_targets = [g.target for g in ds.subset("train")]
    assert abs(mean - np.mean(train_targets)) < 1e-12
    assert mae >= 0.0


@pytest.mark.parametrize("kind", ["GCN", "GIN0", "EXPC", "COMBC"])
def test_loss_finite_every_epoch_all_kinds(kind):
    ds = tiny_dataset(60, seed=8)
    for seed in range(5):
        cfg = TR.TrainConfig(epochs=2, lr=0.005, seed=seed)
        _, metrics = TR.train(TR.triangle_model_specs(kind, 4, s=2), ds, cfg)
        assert all(np.isfinite(v) for v in metrics.train_loss)
        assert all(np.isfinite(v) for v in metrics.valid_loss)


def test_matched_widths_within_ten_percent():
    cells, budget = TR.default_ablation_cells(budget_width=12, s_values=(4,))
    for cell in cells:
        specs = TR.triangle_model_specs(cell["kind"], cell["width"], s=cell["s"],
                                        re_sum=cell["re_sum"])
        count = L.model_param_count(specs)
        assert abs(count - budget) / budget <= 0.10, (cell, count, budget)


def test_the_pinned_protocol_cells_keep_their_widths_and_budget():
    cells, budget = TR.default_ablation_cells(budget_width=10, s_values=(4,), n_layers=3)
    assert [(c["model"], c["width"]) for c in cells] == [
        ("ExpC*-1", 10), ("ExpC-1", 10), ("ExpC-4", 6), ("CombC*", 8), ("CombC", 8),
        ("GCN", 16)]
    assert budget == 646


def test_budget_widths_build_no_model(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Model was built to count parameters")
    monkeypatch.setattr(L.Model, "__init__", refuse)
    cells, budget = TR.default_ablation_cells(budget_width=10, s_values=(4,), n_layers=3)
    assert budget == 646 and len(cells) == 6


@pytest.mark.parametrize("d_in", [1, 3])
def test_matched_widths_on_featured_inputs(d_in):
    cells, budget = TR.default_ablation_cells(budget_width=6, s_values=(2,), d_in=d_in)
    assert budget == L.model_param_count(TR.triangle_model_specs("EXPC", 6, d_in=d_in))
    for cell in cells:
        specs = TR.triangle_model_specs(cell["kind"], cell["width"], s=cell["s"],
                                        re_sum=cell["re_sum"], d_in=d_in)
        assert specs[0].d_in == d_in
        count = L.model_param_count(specs)
        assert abs(count - budget) / budget <= 0.10, (cell, count, budget)


def test_one_spec_builder_for_every_kind():
    specs = TR.triangle_model_specs("EXPC_MULTIAGG", 5, s=3, re_sum=False, n_layers=3, d_in=2)
    assert specs == [L.LayerSpec("EXPC_MULTIAGG", 2, 5, s=3, re_sum=False),
                     L.LayerSpec("EXPC_MULTIAGG", 5, 5, s=3, re_sum=False),
                     L.LayerSpec("EXPC_MULTIAGG", 5, 5, s=3, re_sum=False)]
    # today's cells build the LayerSpec fields they built with a branch per kind
    assert TR.triangle_model_specs("GCN", 4) == [L.LayerSpec("GCN", 1, 4), L.LayerSpec("GCN", 4, 4)]
    assert TR.triangle_model_specs("COMBC", 4, re_sum=False)[1] == \
        L.LayerSpec("COMBC", 4, 4, re_sum=False)
    with pytest.raises(ValueError, match="unknown layer kind"):
        TR.triangle_model_specs("MLP", 4)
    with pytest.raises(ValueError, match="d_in == d_out"):
        TR.triangle_model_specs("GAT_DEFAULT", 4)


def test_ablation_suite_rows_and_csv_roundtrip(tmp_path):
    ds = tiny_dataset(30, seed=4)
    cells, _ = TR.default_ablation_cells(budget_width=4, s_values=(2,))
    rows = TR.ablation_suite(ds, [0, 1, 2], cells, config_kwargs=dict(epochs=2, lr=0.01))
    labels = {r["model"] for r in rows}
    assert {"ExpC*-1", "ExpC-1", "ExpC-2", "CombC*", "CombC", "GCN"} == labels
    assert all(np.isfinite(r["test_mae"]) for r in rows)
    assert all(np.isfinite(r["median_test_mae"]) for r in rows)
    path = tmp_path / "ablate.csv"
    TR.write_csv(rows, path, TR.ABLATION_FIELDS)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for orig, rec in zip(rows, back):
        assert rec["model"] == orig["model"]
        assert float(rec["test_mae"]) == orig["test_mae"]  # lossless floats
        assert float(rec["median_test_mae"]) == orig["median_test_mae"]


@pytest.mark.parametrize("kw", [dict(batch_size=0), dict(batch_size=-3),
                                dict(lr_step_size=0), dict(lr_step_size=-1)],
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_config_rejects_a_batch_size_or_step_below_one(kw):
    name = next(iter(kw))
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        TR.TrainConfig(**kw)


def test_only_cross_entropy_needs_class_index_targets():
    ds = tiny_dataset(12, seed=3)
    ds.graphs[ds.split["train"][0]].target = -1.5
    with pytest.raises(ValueError, match="class index"):
        TR.train(TR.triangle_model_specs("GCN", 2), ds,
                 TR.TrainConfig(epochs=1, loss="cross_entropy"), head_dim=2)
    _, metrics = TR.train(TR.triangle_model_specs("GCN", 2), ds, TR.TrainConfig(epochs=1))
    assert np.isfinite(metrics.train_loss[0])


def test_ablation_needs_three_seeds():
    with pytest.raises(ValueError, match="3 seeds"):
        TR.ablation_suite(tiny_dataset(), [0, 1], TR.default_ablation_cells()[0])


def test_metrics_rows_schema():
    m = TR.Metrics(train_loss=[1.0, 0.5], valid_loss=[1.1, 0.6], test_metric=0.4)
    rows = TR.metrics_rows("ExpC-1", 1, True, 0, m)
    assert len(rows) == 2
    assert list(rows[0].keys()) == list(TR.METRICS_FIELDS)
    assert rows[0]["seconds"] == 0.0


def test_evaluate_after_train_records_nothing(monkeypatch):
    ds = tiny_dataset(40, seed=5)
    model, _ = TR.train(TR.triangle_model_specs("EXPC", 4, s=2), ds,
                        TR.TrainConfig(epochs=2, lr=0.01, seed=3))
    recorded = []
    monkeypatch.setattr(T.Tape, "record", lambda self, out, pairs: recorded.append(out))
    maes = [TR.evaluate(model, ds.graphs) for _ in range(3)]
    assert recorded == []
    assert maes[0] == maes[1] == maes[2]
    assert all(p.tape is None for p in model.params())


def test_train_rejects_kinds_without_autodiff(monkeypatch):
    steps = []
    monkeypatch.setattr(TR, "adam_step", lambda *a, **k: steps.append(a))
    specs = [L.LayerSpec("EXPC", 1, 4, s=2), L.LayerSpec("EXPC_THREE_STAGE", 4, 4, s=2)]
    with pytest.raises(ValueError, match="EXPC_THREE_STAGE"):
        TR.train(specs, tiny_dataset(), TR.TrainConfig(epochs=1))
    assert steps == []


def test_train_diverged_on_a_non_finite_gradient(monkeypatch):
    """A layer whose output is finite but whose backward returns NaN: the
    loss stays finite, and the gradient check stops the run before Adam."""
    original = L.layer_forward
    calls = []

    def poisoned(spec, params, graph, H):
        out = original(spec, params, graph, H)
        calls.append(1)
        if len(calls) <= 4:  # the first batch: two groups of one graph, two layers each
            return out
        return T._make(out.data, [(out, lambda g: g * np.nan)])

    monkeypatch.setattr(L, "layer_forward", poisoned)
    monkeypatch.setattr(TR, "MESSAGE_BUDGET", 1)
    steps = []
    real_adam = TR.adam_step
    monkeypatch.setattr(TR, "adam_step", lambda *a, **k: (steps.append(1), real_adam(*a, **k)))
    cfg = TR.TrainConfig(epochs=1, batch_size=2, lr=0.01, loss="MSE", seed=0)
    with pytest.raises(TR.TrainingDiverged, match="gradient") as exc:
        TR.train(TR.triangle_model_specs("GIN0", 4), tiny_dataset(), cfg)
    assert (exc.value.epoch, exc.value.batch) == (0, 1)
    assert steps == [1]
