"""Command-line interface: dataset generation, theory verification,
equivalence checks, training, ablations, and rank reports.

Every command echoes its resolved configuration and is deterministic
under a fixed --seed. Exit code 0 means no property failure and no error.
"""

import argparse
import json
import sys

import numpy as np

from . import analysis as A
from . import graphs as G
from . import layers as L
from . import train as TR
from . import verify as V
from . import tensor as T

TRAIN_KINDS = {"gcn": "GCN", "gin0": "GIN0", "expc": "EXPC", "combc": "COMBC"}
# Coefficient-generating kinds whose aggregation is not the tanh
# generator's s x |N(v)| matrix that analyze-rank reports.
RANK_SKIPPED = {
    "COMBC": "its coefficients scale the features elementwise, not through an s x |N(v)| matrix",
    "EXPC_MULTIAGG": "it aggregates with constant rows appended to the generator's matrix",
}


def _echo_config(command, args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config {command}: {json.dumps(cfg, default=str)}")


def _load_or_generate(args):
    if getattr(args, "data", None):
        return G.load_graphs(args.data)
    return G.gen_er_triangle_dataset(args.count, n_nodes=args.nodes, p=args.p,
                                     seed=args.data_seed)


def cmd_gen_data(args):
    _echo_config("gen-data", args)
    if args.kind == "regular-pair":
        k33, prism = G.gen_regular_pair()
        ds = G.Dataset([k33, prism], {"train": [0, 1], "valid": [], "test": []},
                       {"generator": "regular-pair"})
    else:
        ds = G.gen_er_triangle_dataset(args.count, n_nodes=args.nodes, p=args.p,
                                       seed=args.seed)
    G.save_graphs(ds, args.out)
    targets = [g.target for g in ds.graphs]
    mean_target = float(np.mean(targets)) if targets else float("nan")
    print(f"wrote {len(ds.graphs)} graphs to {args.out} "
          f"(mean target {mean_target!r}); split sidecar {G.split_path(args.out)}")
    return 0


def cmd_verify(args):
    _echo_config("verify", args)
    results = V.run_suite(args.suite, trials=args.trials, seed=args.seed)
    failures = 0
    for res in results:
        status = "PASS" if res["verdict"] else "FAIL"
        print(f"[{status}] {res['property']}: {json.dumps(res['detail'])}")
        if not res["verdict"]:
            failures += 1
            print(json.dumps(res))
    print(f"verify: {len(results) - failures}/{len(results)} properties hold")
    return 0 if failures == 0 else 1


def cmd_compare_gat(args):
    _echo_config("compare-gat", args)
    res = V.verify_attention_two_routes(args.trials, args.seed, args.heads, args.widths)
    for K, d, dev in res["detail"]["deviations"]:
        print(f"heads={K} width={d}: {args.trials} trials, max abs deviation {dev:.3e}")
    ok = res["verdict"]
    print(f"compare-gat: max deviation {res['detail']['max_abs_deviation']:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _build_specs(args, d_in):
    """The train command's layer specs on d_in input features. A flag the
    model does not read raises ValueError: it would train the same model
    and still land in the checkpoint manifest."""
    kind = TRAIN_KINDS[args.model]
    if args.s != 1 and kind not in L.S_KINDS:
        raise ValueError(f"--s {args.s}: model {args.model} has no expansion factor")
    if not args.re_sum and kind not in L.RE_SUM_KINDS:
        raise ValueError(f"--no-re-sum: model {args.model} has no per-neighbor MLP")
    return TR.triangle_model_specs(kind, args.width, s=args.s, re_sum=args.re_sum, d_in=d_in)


def cmd_train(args):
    _echo_config("train", args)
    ds = _load_or_generate(args)
    config = TR.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                            lr=args.lr, lr_step_size=args.lr_step,
                            lr_decay=args.lr_decay, seed=args.seed,
                            loss=args.loss, readout=args.readout)
    head_dim = 1
    if args.loss == "cross_entropy":
        head_dim = int(max((g.target for g in ds.graphs if g.target is not None),
                           default=0)) + 1
    model, metrics = TR.train(_build_specs(args, ds.feature_width), ds, config,
                              head_dim=head_dim)
    label = f"{args.model}-{args.s}" if args.model in ("expc",) else args.model
    print(f"train {label}: {config.epochs} epochs, "
          f"final train loss {metrics.train_loss[-1]!r}, "
          f"best valid loss {min(metrics.valid_loss)!r}, "
          f"test {config.loss} {metrics.test_metric!r}, "
          f"wall-clock {metrics.seconds:.1f}s")
    if args.csv:
        rows = TR.metrics_rows(label, args.s, args.re_sum, args.seed, metrics)
        TR.write_csv(rows, args.csv, TR.METRICS_FIELDS)
        print(f"metrics csv: {args.csv}")
    if args.out:
        L.save_model(model, args.out)
        print(f"checkpoint: {args.out}.json + {args.out}.bin")
    return 0


def cmd_ablate(args):
    _echo_config("ablate", args)
    ds = _load_or_generate(args)
    seeds = list(range(args.seeds))
    cells, _ = TR.default_ablation_cells(budget_width=args.budget_width,
                                         s_values=tuple(args.s_values),
                                         n_layers=args.n_layers, d_in=ds.feature_width)
    rows = TR.ablation_suite(
        ds, seeds, cells=cells,
        config_kwargs=dict(epochs=args.epochs, batch_size=args.batch_size,
                           lr=args.lr, lr_step_size=args.lr_step,
                           lr_decay=args.lr_decay, loss=args.loss,
                           readout=args.readout))
    by_model = {}
    for r in rows:
        by_model[r["model"]] = r["median_test_mae"]
    for model in sorted(by_model):
        print(f"{model}: median test MAE {by_model[model]!r}")
    if args.csv:
        TR.write_csv(rows, args.csv, TR.ABLATION_FIELDS)
        print(f"ablation csv: {args.csv}")
    return 0


def cmd_analyze_rank(args):
    _echo_config("analyze-rank", args)
    model = L.load_model(args.checkpoint)
    ds = _load_or_generate(args)
    if not 0 <= args.graph_index < len(ds.graphs):
        print(f"error: graph index {args.graph_index} out of range "
              f"for {len(ds.graphs)} graphs", file=sys.stderr)
        return 1
    graph = ds.graphs[args.graph_index]
    H = T.Tensor(graph.node_features)
    reported = False
    for li, (spec, params) in enumerate(zip(model.specs, model.layer_params)):
        if spec.kind in RANK_SKIPPED:
            print(f"layer {li} ({spec.kind}): skipped, {RANK_SKIPPED[spec.kind]}")
        elif spec.kind == "EXPC":
            blocks = L.expc_local_blocks(params, graph, H)
            print(f"layer {li} ({spec.kind}, s={spec.s}): "
                  "node, rank(coefficients), rank(local features), rank(aggregate)")
            for v in range(graph.num_nodes):
                M_v, H_v = blocks[v]
                rm, rh, rp = A.rank_preservation_report(M_v, H_v)
                print(f"  v={v}: ({rm}, {rh}, {rp})")
            reported = True
        H = L.layer_forward(spec, params, graph, H)
    if not reported:
        print("error: checkpoint has no EXPC layer to report", file=sys.stderr)
        return 1
    return 0


def _add_dataset_args(p):
    p.add_argument("--data", default=None, help="JSON-lines dataset path")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--data-seed", type=int, default=0)


def _add_train_args(p):
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--lr-step", type=int, default=30)
    p.add_argument("--lr-decay", type=float, default=0.8)
    p.add_argument("--loss", choices=["MAE", "MSE", "cross_entropy"], default="MAE")
    p.add_argument("--readout", choices=["SUM", "MEAN"], default="SUM")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agglab",
        description="Graph aggregation laboratory: data, certificates, training.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--kind", choices=["er-triangles", "regular-pair"],
                   default="er-triangles")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all",
                   choices=sorted(V.SUITES) + ["all"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare-gat", help="attention two-route equivalence")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heads", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--widths", type=int, nargs="+", default=[4, 8])
    p.set_defaults(func=cmd_compare_gat)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--model", choices=sorted(TRAIN_KINDS), default="expc")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--width", type=int, default=12)
    p.add_argument("--re-sum", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
    _add_train_args(p)
    _add_dataset_args(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None, help="checkpoint base path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="median test MAE per model cell")
    p.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1")
    p.add_argument("--s-values", type=int, nargs="+", default=[4])
    p.add_argument("--budget-width", type=int, default=12)
    p.add_argument("--n-layers", type=int, default=2)
    _add_train_args(p)
    _add_dataset_args(p)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("analyze-rank", help="per-node rank report triples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph-index", type=int, default=0)
    _add_dataset_args(p)
    p.set_defaults(func=cmd_analyze_rank)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, G.GraphFileError, TR.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
