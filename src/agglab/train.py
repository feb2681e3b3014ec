"""Training harness: Adam, step-decay schedule, batched training over
disjoint-union graph batches, and the desk-scale ablation suite.

A training batch is split into groups of consecutive graphs that fit
under MESSAGE_BUDGET messages; each group is one tape, over a GraphBatch
or, for a group of one, the Graph itself, and the groups' gradients add
up to the batch gradient. Validation and evaluate run the same groups
without a tape.

Runs are deterministic given the config seed: identical configs produce
bitwise-identical metrics. For that reason the metrics CSV carries a
fixed 0.0 in its seconds column; real wall-clock timing lives on the
returned Metrics object and the run summary printed by the CLI.
"""

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .graphs import GraphBatch, is_finite_number
from .layers import LayerSpec, Model, model_param_count

__all__ = [
    "TrainConfig", "Metrics", "TrainingDiverged", "adam_init", "adam_step",
    "step_lr", "graph_loss", "message_groups", "MESSAGE_BUDGET", "train",
    "evaluate", "constant_baseline_mae",
    "triangle_model_specs", "pick_matched_width", "default_ablation_cells",
    "ablation_suite", "ABLATION_FIELDS", "write_csv", "worker_count",
]

ABLATION_FIELDS = ("model", "s", "re_sum", "seed", "test_mae", "median_test_mae")
METRICS_FIELDS = ("model", "s", "re_sum", "seed", "epoch", "train_loss",
                  "valid_loss", "test_metric", "seconds")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 0.005
    lr_step_size: int = 30
    lr_decay: float = 0.8
    seed: int = 0
    loss: str = "MAE"
    readout: str = "SUM"

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr!r}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.lr_step_size < 1:
            raise ValueError(f"lr_step_size must be >= 1, got {self.lr_step_size!r}")
        if self.loss not in ("MAE", "MSE", "cross_entropy"):
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass
class Metrics:
    train_loss: list = field(default_factory=list)
    valid_loss: list = field(default_factory=list)
    test_metric: float = float("nan")
    seconds: float = 0.0


# Messages per group (one tape). Set when tapes waited for the cycle
# collector: a whole batch of 16 80-node graphs, about 53k messages, then
# made a tape whose memory was freed and re-faulted on every step, a third
# slower than one tape per graph. The groups fix the order of the gradient
# sums, so the value stays: another one moves trained parameters in the
# last bits.
MESSAGE_BUDGET = 4096


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch, batch, what="loss"):
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def adam_init(params):
    return {
        "m": [np.zeros_like(p.data) for p in params],
        "v": [np.zeros_like(p.data) for p in params],
        "t": 0,
    }


def adam_step(params, grads, state, lr):
    """Standard Adam update with bias correction; mutates params and state."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    t = state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.data.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.data.shape}")
        state["m"][i] = beta1 * state["m"][i] + (1 - beta1) * g
        state["v"][i] = beta2 * state["v"][i] + (1 - beta2) * (g * g)
        m_hat = state["m"][i] / (1 - beta1 ** t)
        v_hat = state["v"][i] / (1 - beta2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def step_lr(epoch, config):
    return config.lr * config.lr_decay ** (epoch // config.lr_step_size)


def graph_loss(model, graph, loss_kind):
    """Scalar loss tensor for one graph (graph carries its own target), or
    for a GraphBatch the sum of its graphs' losses."""
    pred = model.forward(graph)
    if loss_kind == "cross_entropy":
        probs = T.softmax_rows(pred)
        onehot = np.zeros(pred.data.shape)
        onehot[np.arange(pred.data.shape[0]), [int(t) for t in graph.targets]] = 1.0
        picked = T.matmul(T.elementwise_mul(probs, T.Tensor(onehot)),
                          T.Tensor(np.ones((pred.data.shape[1], 1))))
        return T.scale(T.sum_all(T.log(picked)), -1.0)
    target = T.Tensor(np.array(graph.targets, dtype=np.float64)[:, None])
    diff = T.sub(pred, target)
    if loss_kind == "MSE":
        return T.sum_all(T.elementwise_mul(diff, diff))
    return T.sum_all(T.abs_(diff))  # MAE


def message_groups(graphs):
    """Groups of consecutive graphs, each holding as many graphs as fit
    under MESSAGE_BUDGET messages (a larger graph forms a group alone): a
    GraphBatch, or the Graph itself for a group of one, which computes the
    same bits without copying its arrays."""
    runs, size = [], 0
    for g in graphs:
        k = len(g.message_index()[0])
        if not runs or size + k > MESSAGE_BUDGET:
            runs.append([])
            size = 0
        runs[-1].append(g)
        size += k
    return [run[0] if len(run) == 1 else GraphBatch(run) for run in runs]


def evaluate(model, graphs, loss_kind="MAE"):
    """MAE for regression, accuracy for cross_entropy; never mutates params."""
    if not graphs:
        return float("nan")
    if loss_kind != "cross_entropy" and model.head_dim != 1:
        raise ValueError(f"regression needs head_dim 1, got {model.head_dim}")
    total = 0.0
    for group in message_groups(graphs):
        pred = model.forward(group).data
        if loss_kind == "cross_entropy":
            total += sum(int(p) == int(t) for p, t in zip(np.argmax(pred, axis=1), group.targets))
        else:
            total += float(np.abs(pred[:, 0] - np.array(group.targets, dtype=np.float64)).sum())
    return total / len(graphs)


def _mean_loss(model, graphs, loss_kind):
    return sum(graph_loss(model, group, loss_kind).data.item()
               for group in message_groups(graphs)) / len(graphs)


def train(specs, dataset, config, head_dim=1):
    """Train a model over the dataset's train split; deterministic per seed.

    Each batch of batch_size graphs runs as message_groups, one tape per
    group; the summed gradients, divided by the batch size, make one Adam
    step. The returned model carries the best-validation-epoch parameters
    (final parameters when there is no validation split). Every graph of
    every split needs a target.
    """
    t0 = time.perf_counter()
    for split in ("train", "valid", "test"):
        for i in dataset.split[split]:
            target = dataset.graphs[i].target
            if target is None:
                raise ValueError(f"{split} split: graph {i} has no target")
            if not is_finite_number(target):
                raise ValueError(f"{split} split: graph {i} has target {target!r}, "
                                 f"not a finite number")
            if config.loss == "cross_entropy" and not (target >= 0 and float(target).is_integer()):
                raise ValueError(f"{split} split: graph {i} has target {target!r}; "
                                 f"cross_entropy needs a class index, an integer >= 0")
    train_graphs = dataset.subset("train")
    if not train_graphs:
        raise ValueError("empty train split")
    valid_graphs = dataset.subset("valid")
    test_graphs = dataset.subset("test")

    model = Model(specs, seed=config.seed, head_dim=head_dim,
                  readout_mode=config.readout)
    params = model.params()
    state = adam_init(params)
    rng = np.random.default_rng(config.seed)
    metrics = Metrics()
    best_valid = float("inf")
    best_snapshot = None

    names = [name for name, _ in model.named_params()]
    for epoch in range(config.epochs):
        lr = step_lr(epoch, config)
        order = rng.permutation(len(train_graphs))
        epoch_loss = 0.0
        for batch_index, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_graphs[i] for i in order[lo:lo + config.batch_size]]
            model.zero_grad()
            for group in message_groups(batch):
                # Hold each finished tape until the next group's backward has
                # run. Freeing it at once let the allocator hand its memory
                # back, and the next forward faulted it in again: on 80-node
                # p=0.5 graphs, five cells of 16 steps took 146k minor faults
                # and 0.70 s instead of about 5k and 0.44 s (2 vCPUs).
                value, held = _accumulate_gradients(model, group, config.loss)
                if not np.isfinite(value):
                    raise TrainingDiverged(epoch, batch_index)
                epoch_loss += value
            grads = [(p.grad if p.grad is not None else np.zeros_like(p.data)) / len(batch)
                     for p in params]
            for name, g in zip(names, grads):
                if not np.isfinite(g).all():
                    raise TrainingDiverged(epoch, batch_index, f"gradient of {name}")
            adam_step(params, grads, state, lr)
        model.zero_grad()
        metrics.train_loss.append(epoch_loss / len(train_graphs))
        if valid_graphs:
            vloss = _mean_loss(model, valid_graphs, config.loss)
            metrics.valid_loss.append(vloss)
            if vloss < best_valid:
                best_valid = vloss
                best_snapshot = [p.data.copy() for p in params]
        else:
            metrics.valid_loss.append(float("nan"))

    if best_snapshot is not None:
        for p, data in zip(params, best_snapshot):
            p.data = data
    metrics.test_metric = evaluate(model, test_graphs, config.loss)
    metrics.seconds = time.perf_counter() - t0
    return model, metrics


def _accumulate_gradients(model, group, loss_kind):
    """Loss and tape of one group: adds the group's gradients to the
    parameters' .grad when the loss is finite, then detaches them. The
    returned tape is the only reference left to the group's record, so
    dropping it frees the group's intermediates and gradients at once."""
    tape = T.Tape()
    model.watch(tape)
    loss = graph_loss(model, group, loss_kind)
    value = loss.data.item()
    if np.isfinite(value):
        tape.backward(loss)
    model.detach()
    return value, tape


def constant_baseline_mae(dataset):
    """Test MAE of the predict-the-train-mean baseline."""
    train_targets = [g.target for g in dataset.subset("train")]
    mean = float(np.mean(train_targets))
    test = dataset.subset("test")
    return float(np.mean([abs(g.target - mean) for g in test])), mean


def triangle_model_specs(kind, width, s=1, re_sum=True, n_layers=2, d_in=1):
    """n_layers specs of one layer kind and width for the structure-only
    regression tasks; the first layer reads d_in features."""
    return [LayerSpec(kind, d_in if i == 0 else width, width, s=s, re_sum=re_sum)
            for i in range(n_layers)]


def pick_matched_width(kind, target_params, s=1, re_sum=True, n_layers=2, d_in=1):
    """Width in 1..192 whose full-model parameter count comes closest to
    the target."""
    best_w, best_gap = 1, float("inf")
    for w in range(1, 193):
        count = model_param_count(triangle_model_specs(kind, w, s=s, re_sum=re_sum,
                                                       n_layers=n_layers, d_in=d_in))
        gap = abs(count - target_params)
        if gap < best_gap:
            best_w, best_gap = w, gap
        if count > 4 * target_params:
            break
    return best_w


def default_ablation_cells(budget_width=12, s_values=(4,), n_layers=2, d_in=1):
    """Table rows: ExpC*-1 / ExpC-1 / ExpC-s / CombC* / CombC / GCN, with
    widths chosen so every row's parameter count, on d_in input features,
    matches ExpC-1's budget."""
    budget = model_param_count(triangle_model_specs("EXPC", budget_width, s=1,
                                                    n_layers=n_layers, d_in=d_in))
    cells = [
        ("ExpC*-1", "EXPC", 1, False),
        ("ExpC-1", "EXPC", 1, True),
    ]
    cells += [(f"ExpC-{s}", "EXPC", s, True) for s in s_values]
    cells += [
        ("CombC*", "COMBC", 1, False),
        ("CombC", "COMBC", 1, True),
        ("GCN", "GCN", 1, True),
    ]
    out = []
    for label, kind, s, re_sum in cells:
        if kind == "EXPC" and s == 1 and re_sum:
            width = budget_width
        else:
            width = pick_matched_width(kind, budget, s=s, re_sum=re_sum,
                                       n_layers=n_layers, d_in=d_in)
        out.append({"model": label, "kind": kind, "s": s, "re_sum": re_sum,
                    "width": width, "n_layers": n_layers})
    return out, budget


def _run_cell(args):
    cell, dataset, config_kwargs, seed = args
    config = TrainConfig(seed=seed, **config_kwargs)
    specs = triangle_model_specs(cell["kind"], cell["width"], s=cell["s"],
                                 re_sum=cell["re_sum"],
                                 n_layers=cell.get("n_layers", 2),
                                 d_in=dataset.feature_width)
    _, metrics = train(specs, dataset, config)
    return {"model": cell["model"], "s": cell["s"], "re_sum": cell["re_sum"],
            "seed": seed, "test_mae": metrics.test_metric}


def worker_count():
    env = os.environ.get("AGGLAB_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"AGGLAB_THREADS must be an integer >= 1, got {env!r}")
        return count
    return os.cpu_count() or 1


def ablation_suite(dataset, seeds, cells, config_kwargs=None):
    """Median test MAE per (model, s, re_sum) cell over the given seeds;
    cells are rows of default_ablation_cells.

    Cells run in parallel across processes (capped by AGGLAB_THREADS);
    each run is independently seeded so the result does not depend on
    scheduling. Rows come back in canonical (model, seed) order with the
    cell median attached to every row.
    """
    if len(seeds) < 3:
        raise ValueError("ablation needs at least 3 seeds for a stable median")
    config_kwargs = dict(config_kwargs or {})
    jobs = [(cell, dataset, config_kwargs, seed) for cell in cells for seed in seeds]
    workers = min(worker_count(), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, jobs))
    else:
        rows = [_run_cell(job) for job in jobs]
    by_cell = {}
    for row in rows:
        by_cell.setdefault(row["model"], []).append(row["test_mae"])
    for row in rows:
        row["median_test_mae"] = float(np.median(by_cell[row["model"]]))
    rows.sort(key=lambda r: (r["model"], r["seed"]))
    return rows


def write_csv(rows, path, fields):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fields})


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return str(int(value))
    return value


def metrics_rows(label, s, re_sum, seed, metrics):
    """Per-epoch rows in the metrics CSV schema. The seconds column is a
    fixed 0.0 so reruns with the same seed are byte-identical; wall-clock
    timing is reported separately."""
    rows = []
    for epoch, (tl, vl) in enumerate(zip(metrics.train_loss, metrics.valid_loss)):
        rows.append({
            "model": label, "s": s, "re_sum": re_sum, "seed": seed,
            "epoch": epoch, "train_loss": tl, "valid_loss": vl,
            "test_metric": metrics.test_metric, "seconds": 0.0,
        })
    return rows
