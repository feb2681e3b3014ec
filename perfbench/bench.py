"""Workloads of the agglab benchmark: inputs made from a seed, the measured
phases, the checks of the program's outputs, and the metrics.

A run repeats one round until its seconds are used up. A round trains each
of the workload's cells once with train.train, evaluates each trained
model with train.evaluate (forward only), and runs the next
suites_per_round certificate suites of verify.run_suite, cycling through
all of them. So every workload reports every end-to-end metric; the
workloads differ in their graphs, their cells and how much of a round
goes to verify. Each call is timed on its own and the metrics are medians
over the rounds, so a slow spell of the machine moves few of the samples.
"""

import contextlib
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from agglab import graphs as G
from agglab import layers as L
from agglab import tensor as T
from agglab import train as TR
from agglab import verify as V

import refmodel as R
import spans

# The pinned protocol of the acceptance tests: 3 layers, MSE, batch 32,
# widths matched to the parameter count of ExpC-1 at width 10.
BUDGET_WIDTH = 10
N_LAYERS = 3
S_VALUES = (4,)
TRAIN_CONFIG = dict(batch_size=32, lr=0.005, loss="MSE", readout="SUM")
# Scale of the Gaussian node features of dense graphs: at 0.1 every cell's
# initial MSE is O(1); at 0.2 CombC's is about 20, because sums over ~40
# neighbours compound over 3 layers.
FEATURE_STD = 0.1
# Set-up repeats until SETUP_SECONDS have gone into it, at least
# SETUP_MIN times; setup_s is the median.
SETUP_SECONDS = 2.5
SETUP_MIN = 3
SUITES = ("lemma1", "prop1", "prop2", "prop3", "prop4", "eq5", "appendixG")

FORWARD_RTOL = 1e-9
GRAD_TOL = 1e-6
FD_EPS = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    p: float
    feature_cols: int      # 0 keeps the generator's constant feature [1.0]
    target_scale: float    # the target is the triangle count divided by this
    cells: tuple           # labels from train.default_ablation_cells
    n_train: int           # graphs one train.train call runs one epoch over
    n_eval: int            # graphs one train.evaluate call runs over
    suites_per_round: int
    min_rounds: int        # enough for one pass over the suites
    check_graphs: int      # graphs per cell whose Model.forward is compared
    grad_graphs: int       # graphs in the gradient-check batch
    grad_coords: int       # coordinates per cell checked by central differences


WORKLOADS = {w.name: w for w in (
    Workload("triangles-small", n_nodes=10, p=0.3, feature_cols=0, target_scale=1.0,
             cells=("ExpC*-1", "ExpC-1", "ExpC-4", "GCN"), n_train=96, n_eval=100,
             suites_per_round=3, min_rounds=3,
             check_graphs=16, grad_graphs=32, grad_coords=8),
    Workload("dense-large", n_nodes=80, p=0.5, feature_cols=3,
             target_scale=math.comb(80, 3) * 0.5 ** 3,
             cells=("ExpC-1", "ExpC*-1", "ExpC-4", "CombC", "GCN"), n_train=16, n_eval=16,
             suites_per_round=5, min_rounds=2,
             check_graphs=3, grad_graphs=4, grad_coords=6),
    Workload("verify-all", n_nodes=10, p=0.3, feature_cols=0, target_scale=1.0,
             cells=("ExpC-1",), n_train=96, n_eval=100,
             suites_per_round=len(SUITES), min_rounds=3,
             check_graphs=8, grad_graphs=32, grad_coords=8),
)}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _param_map(model):
    return {name: t.data.copy() for name, t in model.named_params()}


@dataclass
class Inputs:
    train: G.Dataset
    eval_graphs: list
    specs: list            # layer specs per cell
    initial: list          # parameters per cell before training


def make_inputs(w, seed, tracer=None):
    """Graphs, matched widths, initial models and warm message indexes."""
    ds = G.gen_er_triangle_dataset(w.n_train + w.n_eval, n_nodes=w.n_nodes, p=w.p,
                                   seed=seed, split_fracs=(1.0, 0.0, 0.0))
    graphs = ds.graphs
    if w.feature_cols:
        rng = np.random.default_rng([seed, 1])
        graphs = [G.Graph(g.num_nodes, g.edges,
                          FEATURE_STD * rng.standard_normal((g.num_nodes, w.feature_cols)),
                          target=g.target / w.target_scale) for g in graphs]
    for g in graphs:
        with _span(tracer, "graphs.Graph.message_index"):
            g.message_index()
    cells, _ = TR.default_ablation_cells(budget_width=BUDGET_WIDTH, s_values=S_VALUES,
                                         n_layers=N_LAYERS)
    by_label = {c["model"]: c for c in cells}
    d_in = graphs[0].node_features.shape[1]
    specs = []
    for label in w.cells:
        c = by_label[label]
        specs.append(TR.triangle_model_specs(c["kind"], c["width"], s=c["s"],
                                             re_sum=c["re_sum"], n_layers=N_LAYERS,
                                             d_in=d_in))
    initial = [_param_map(L.Model(sp, seed=seed)) for sp in specs]
    return Inputs(G.Dataset(graphs[:w.n_train]), graphs[w.n_train:], specs, initial)


@dataclass
class CellRun:
    params: dict                                    # trained parameters, first round
    mae: float                                      # train.evaluate's MAE, first round
    train_s: list = field(default_factory=list)     # seconds of each train.train call
    eval_s: list = field(default_factory=list)      # seconds of each train.evaluate call
    repeats_differ: int = 0    # later rounds whose parameters or MAE differ


@dataclass
class SuiteRun:
    suite: str
    seed: int
    seconds: float
    result: dict


@dataclass
class Record:
    workload: Workload
    seed: int
    inputs: Inputs
    setup_s: list
    cells: list = field(default_factory=list)
    suites: list = field(default_factory=list)
    rounds: int = 0
    peak_rss_mb: float = 0.0

    @property
    def train_steps(self):
        return self.rounds * len(self.cells) * len(self.inputs.train)

    @property
    def eval_graphs(self):
        return self.rounds * len(self.cells) * len(self.inputs.eval_graphs)

    @property
    def attempted(self):
        return self.train_steps + self.eval_graphs + len(self.suites)


def train_round(rec, config):
    """Train every cell from scratch, then evaluate the model train returned."""
    inp = rec.inputs
    for i, specs in enumerate(inp.specs):
        t0 = time.perf_counter()
        model, _ = TR.train(specs, inp.train, config)
        t1 = time.perf_counter()
        mae = TR.evaluate(model, inp.eval_graphs)
        t2 = time.perf_counter()
        params = _param_map(model)
        del model
        gc.collect()  # the next call starts without this model's tapes
        if rec.rounds == 0:
            rec.cells.append(CellRun(params, mae))
        cell = rec.cells[i]
        cell.train_s.append(t1 - t0)
        cell.eval_s.append(t2 - t1)
        if mae != cell.mae or any(not np.array_equal(params[k], v)
                                  for k, v in cell.params.items()):
            cell.repeats_differ += 1


def suite_round(rec, count):
    """The next `count` suites; pass k runs every suite with seed 1000*seed + k."""
    for _ in range(count):
        k = len(rec.suites)
        suite, seed = SUITES[k % len(SUITES)], 1000 * rec.seed + k // len(SUITES)
        t0 = time.perf_counter()
        (result,) = V.run_suite(suite, seed=seed)
        rec.suites.append(SuiteRun(suite, seed, time.perf_counter() - t0, result))


def measure(w, seed, seconds, tracer=None):
    """Set up repeatedly, then run rounds for `seconds`."""
    setup_s = []
    while len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_SECONDS:
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = make_inputs(w, seed, tracer)
        setup_s.append(time.perf_counter() - t0)
    rec = Record(w, seed, inputs, setup_s)
    config = TR.TrainConfig(epochs=1, seed=seed, **TRAIN_CONFIG)
    start = time.perf_counter()
    while rec.rounds < w.min_rounds or time.perf_counter() - start < seconds:
        train_round(rec, config)
        suite_round(rec, w.suites_per_round)
        rec.rounds += 1
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec


# ---- correctness ---------------------------------------------------------

def check(rec):
    """Every failed check, as one line each; empty when the outputs are right."""
    failures = check_targets(rec)
    for i in range(len(rec.cells)):
        failures += check_cell(rec, i)
    for run in rec.suites:
        failures += check_suite(run)
    return failures


def check_targets(rec):
    w = rec.workload
    failures = []
    for k, g in enumerate(rec.inputs.train.graphs + rec.inputs.eval_graphs):
        expected = R.triangle_count(g) / w.target_scale
        if g.target != expected:
            failures.append(f"graph {k}: target {g.target!r}, trace(A^3)/6 gives {expected!r}")
    return failures


def check_cell(rec, i):
    """Forward, MAE and gradients of one trained cell against the reference."""
    w, inp, cell = rec.workload, rec.inputs, rec.cells[i]
    specs, label = inp.specs[i], w.cells[i]
    failures = []
    if cell.repeats_differ:
        failures.append(f"{label}: {cell.repeats_differ} later rounds trained other "
                        "parameters or evaluated another MAE")
    if all(np.array_equal(cell.params[k], v) for k, v in inp.initial[i].items()):
        failures.append(f"{label}: training left every parameter unchanged")
    model = L.Model(specs, seed=rec.seed)
    for name, t in model.named_params():
        t.data = cell.params[name].copy()

    pool = inp.train.graphs + inp.eval_graphs
    rng = np.random.default_rng([rec.seed, 2, i])
    for k in rng.choice(len(pool), size=w.check_graphs, replace=False):
        got = model.forward(pool[k]).data.item()
        ref, scale, _ = R.forward(specs, cell.params, pool[k])
        if not abs(got - ref) <= FORWARD_RTOL * scale:
            failures.append(f"{label}: graph {k}: Model.forward {got!r}, reference {ref!r}")

    refs = [R.forward(specs, cell.params, g) for g in inp.eval_graphs]
    mae = statistics.fmean(abs(pred - g.target) for (pred, _, _), g in zip(refs, inp.eval_graphs))
    bound = FORWARD_RTOL * statistics.fmean(scale + abs(g.target)
                                           for (_, scale, _), g in zip(refs, inp.eval_graphs))
    if not abs(cell.mae - mae) <= bound:
        failures.append(f"{label}: train.evaluate MAE {cell.mae!r}, reference {mae!r}")
    return failures + check_gradients(rec, i, model)


def check_gradients(rec, i, model):
    """Tape.backward on one batch against central differences of the reference."""
    w, cell = rec.workload, rec.cells[i]
    specs, label = rec.inputs.specs[i], w.cells[i]
    batch = rec.inputs.train.graphs[:w.grad_graphs]
    model.zero_grad()
    for g in batch:
        tape = T.Tape()
        model.watch(tape)
        tape.backward(TR.graph_loss(model, g, "MSE"))
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data)) / len(batch)
             for name, t in model.named_params()}

    params = {k: v.copy() for k, v in cell.params.items()}
    adjs = [R.adjacency(g) for g in batch]
    _, base_signs = R.batch_loss(specs, params, batch, adjs)
    names = sorted(params)
    rng = np.random.default_rng([rec.seed, 3, i])
    failures, checked = [], 0
    for _ in range(4 * w.grad_coords):
        if checked == w.grad_coords:
            break
        name = names[int(rng.integers(len(names)))]
        index = int(rng.integers(params[name].size))
        fd = R.central_difference(specs, params, batch, adjs, base_signs, name, index, FD_EPS)
        if fd is None:
            continue
        checked += 1
        an = float(grads[name].reshape(-1)[index])
        if not abs(fd - an) <= GRAD_TOL * max(1.0, abs(an)):
            failures.append(f"{label}: d loss / d {name}[{index}]: Tape.backward {an!r}, "
                            f"central difference {fd!r}")
    if checked < w.grad_coords:
        failures.append(f"{label}: found {checked} of {w.grad_coords} coordinates "
                        "away from ReLU kinks")
    return failures


# Counters every suite's detail must show, given its default trial counts.
SUITE_EXPECT = {
    "lemma1": [
        ("no projection separates more", lambda d: d["i_violations"] == 0),
        ("SUM||MEAN beats SUM and MEAN", lambda d: d["ii_verdicts"] == ["stronger", "stronger"]),
        ("witness pairs hold", lambda d: d["ii_witnesses_hold"] is True),
        ("no premap separates more", lambda d: d["iii_violations"] == 0),
    ],
    "prop1": [
        ("stacking keeps separations", lambda d: d["i_violations"] == 0),
        ("810 rank cases agree", lambda d: d["ii_cases"] == 810 and d["ii_mismatches"] == 0),
        ("100 injectivity cases agree",
         lambda d: d["iii_cases"] == 100 and d["iii_agreements"] == 100),
        ("50 deficient cases, each with a kernel collision",
         lambda d: d["iii_deficient"] == 50 and d["iii_kernel_collisions_verified"] == 50),
    ],
    "prop2": [
        ("40 trials without violation",
         lambda d: d["trials"] == 40 and d["i_violations"] == 0 and d["ii_violations"] == 0),
        ("strict cases within trials", lambda d: 0 <= d["strict_shrink_cases"] <= 40),
    ],
    "prop3": [
        ("certified pairs within 50", lambda d: d["random_pairs"] == 50
         and 0 < d["certified"] <= 50),
        ("every certified pair clean, with a trivial kernel",
         lambda d: d["search_clean"] == d["certified"] == d["trivial_kernel"]),
        ("10 deficient pairs, each with a witness",
         lambda d: d["deficient_pairs"] == 10 and d["kernel_witnesses"] == 10),
    ],
    "prop4": [
        ("20 trials over heads 1, 2, 4 and widths 4, 8",
         lambda d: d["trials_per_config"] == 20 and d["heads"] == [1, 2, 4]
         and d["widths"] == [4, 8]),
        ("routes agree to 1e-10", lambda d: d["max_abs_deviation"] < 1e-10),
    ],
    "eq5": [
        ("20 trials, routes agree to 1e-10",
         lambda d: d["trials"] == 20 and d["max_abs_deviation"] < 1e-10),
        ("active subsets match", lambda d: d["active_subset_mismatches"] == 0),
    ],
    "appendixG": [
        ("every one of 20 trials strictly stronger",
         lambda d: d["trials"] == 20 and d["strictly_stronger_cases"] == 20),
    ],
}


def check_suite(run):
    r = run.result
    if r.get("property") != run.suite:
        return [f"verify {run.suite} (seed {run.seed}): returned property {r.get('property')!r}"]
    problems = []
    for what, holds in SUITE_EXPECT[run.suite]:
        try:
            ok = holds(r["detail"])
        except (KeyError, TypeError):
            ok = False
        if not ok:
            problems.append(f"detail fails: {what}")
    if r["verdict"] is not True:
        problems.append(f"verdict {r['verdict']!r}")
    # appendixG returns its strict-gain example as the witness of success
    if r["witness"] is not None and run.suite != "appendixG":
        problems.append("returned a witness")
    return [f"verify {run.suite} (seed {run.seed}): {p}" for p in problems]


# ---- metrics -------------------------------------------------------------

def _suite_seconds(rec):
    out = {}
    for run in rec.suites:
        out.setdefault(run.suite, []).append(run.seconds)
    return out


def end_to_end(rec):
    """Medians over the rounds; throughputs add the per-cell medians up."""
    med = statistics.median
    inp = rec.inputs
    train_s = sum(med(c.train_s) for c in rec.cells)
    eval_s = sum(med(c.eval_s) for c in rec.cells)
    return {
        "setup_s": (med(rec.setup_s), "s"),
        "train_graph_steps_per_s": (len(rec.cells) * len(inp.train) / train_s, "graphs/s"),
        "eval_graphs_per_s": (len(rec.cells) * len(inp.eval_graphs) / eval_s, "graphs/s"),
        "verify_s": (sum(med(v) for v in _suite_seconds(rec).values()), "s"),
        "peak_rss_mb": (rec.peak_rss_mb, "MB"),
    }


def per_layer(rec, tracer):
    """Per-layer metrics from the spans and counts of a traced run.

    Verify figures are per pass: for each suite, the total over its runs
    divided by their number, summed over the suites.
    """
    summary = tracer.summary()

    def total(name, phase=None, column=0):
        return sum(v[column] for (n, ph), v in summary.items()
                   if n == name and phase in (None, ph))

    runs = {suite: len(v) for suite, v in _suite_seconds(rec).items()}

    def per_pass(measure, name):
        return sum(measure(name, f"verify.{suite}") / n for suite, n in runs.items())

    steps, evals = rec.train_steps, rec.eval_graphs
    made = len(rec.setup_s) * (rec.workload.n_train + rec.workload.n_eval)
    record = "tensor.Tape.record"
    m = {
        "layers.forward_ms_per_step": (1e3 * total("layers.layer_forward", "train") / steps, "ms"),
        "tensor.backward_ms_per_step": (1e3 * total("tensor.Tape.backward", "train") / steps, "ms"),
        "tensor.ops_per_step": (tracer.calls(record, "train") / steps, "ops"),
        "tensor.ops_per_eval_graph": (tracer.calls(record, "eval") / evals, "ops"),
        "train.adam_ms_per_batch":
            (1e3 * total("train.adam_step") / total("train.adam_step", column=2), "ms"),
        "train.loop_self_ms_per_step": (1e3 * total("train.train", column=1) / steps, "ms"),
        "train.evaluate_ms_per_graph": (1e3 * total("train.evaluate") / evals, "ms"),
        "graphs.gen_ms_per_graph": (1e3 * total("graphs.gen_er_triangle_dataset") / made, "ms"),
        "graphs.message_index_ms_per_graph":
            (1e3 * total("graphs.Graph.message_index") / made, "ms"),
        "analysis.separation_set_s": (per_pass(total, "analysis.separation_set"), "s"),
        "analysis.collision_oracle_s": (per_pass(total, "analysis.collision_oracle"), "s"),
        "analysis.compare_strength_s": (per_pass(total, "analysis.compare_strength"), "s"),
        "analysis.numerical_rank_calls":
            (per_pass(tracer.calls, "analysis.numerical_rank"), "calls"),
        "analysis.aggregator_calls": (per_pass(tracer.calls, "analysis.aggregator_call"), "calls"),
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = (total(f"verify.{suite}") / runs[suite], "s")
    return m


# ---- layer sweep (traced runs only) --------------------------------------

SWEEP_WIDTH = 8
SWEEP_LAYERS = (
    ("GCN", dict(kind="GCN")),
    ("GIN0", dict(kind="GIN0")),
    ("GAT_DEFAULT", dict(kind="GAT_DEFAULT", heads=2)),
    ("GAT_EXPANDING", dict(kind="GAT_EXPANDING", heads=2)),
    ("EXPC", dict(kind="EXPC", s=4)),
    ("EXPC_sumfirst", dict(kind="EXPC", s=4, re_sum=False)),
    ("COMBC", dict(kind="COMBC")),
    ("EXPC_MULTIAGG", dict(kind="EXPC_MULTIAGG", s=4)),
    ("EXPC_THREE_STAGE", dict(kind="EXPC_THREE_STAGE", s=4)),
)
# one graph of each training workload's shape: (name, n_nodes, p, repeats)
SWEEP_SHAPES = (("small", 10, 0.3, 40), ("dense", 80, 0.5, 4))


def sweep_inputs(seed):
    rng = np.random.default_rng([seed, 4])
    out = []
    for shape, n, p, reps in SWEEP_SHAPES:
        g = G.gen_er_triangle_dataset(1, n_nodes=n, p=p, seed=seed).graphs[0]
        g = G.Graph(n, g.edges, rng.standard_normal((n, SWEEP_WIDTH)))
        g.message_index()
        out.append((shape, g, reps))
    return out


def layer_sweep(graphs, seed, tracer):
    """Forward and backward medians and taped ops of every layer kind."""
    out = {}
    key = ("tensor.Tape.record", "sweep")
    with tracer.span("layers.sweep", phase="sweep"):
        for shape, g, reps in graphs:
            H = T.Tensor(g.node_features)
            for label, kw in SWEEP_LAYERS:
                spec = L.LayerSpec(d_in=SWEEP_WIDTH, d_out=SWEEP_WIDTH, **kw)
                params = L.init_layer_params(spec, np.random.default_rng([seed, 5]))
                fwd, bwd, ops = [], [], 0
                for _ in range(reps):
                    tape = T.Tape()
                    for t in params.values():
                        tape.watch(t)
                    before = tracer.counts[key]
                    t0 = time.perf_counter()
                    out_t = L.layer_forward(spec, params, g, H)
                    fwd.append(time.perf_counter() - t0)
                    ops = tracer.counts[key] - before
                    if out_t.tape is not None:
                        loss = T.sum_all(out_t)
                        t0 = time.perf_counter()
                        tape.backward(loss)
                        bwd.append(time.perf_counter() - t0)
                prefix = f"layers.{label}.{shape}"
                out[f"{prefix}.fwd_ms"] = (1e3 * statistics.median(fwd), "ms")
                if bwd:
                    out[f"{prefix}.bwd_ms"] = (1e3 * statistics.median(bwd), "ms")
                    out[f"{prefix}.ops"] = (ops, "ops")
    return out


# ---- one run -------------------------------------------------------------

def run(w, seed, seconds, trace, trace_path):
    """(result object, failed checks) of one run of workload w; a traced
    run writes its spans to trace_path."""
    if trace:
        tracer = spans.Tracer()
        graphs = sweep_inputs(seed)
        with spans.Installed(tracer):
            rec = measure(w, seed, seconds, tracer)
            sweep = layer_sweep(graphs, seed, tracer)
        metrics = {**per_layer(rec, tracer), **sweep}
        tracer.write(trace_path)
    else:
        rec = measure(w, seed, seconds)
        metrics = end_to_end(rec)
    failures = check(rec)
    result = {
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failures
