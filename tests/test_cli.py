import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agglab import cli
from agglab import graphs as G


GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv):
    return cli.main(argv)


@pytest.mark.parametrize("argv, golden", [
    (["verify", "--suite", "all", "--seed", "0"], "verify_all_seed0.txt"),
    (["verify", "--suite", "all", "--seed", "1"], "verify_all_seed1.txt"),
    (["verify", "--suite", "all", "--seed", "2"], "verify_all_seed2.txt"),
    (["compare-gat", "--trials", "5", "--seed", "3"], "compare_gat_trials5_seed3.txt"),
])
def test_stdout_matches_the_golden_bytes(argv, golden, capsys):
    # suite counters, verdicts and witnesses, byte for byte as first recorded
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_gen_data_regular_pair(tmp_path, capsys):
    out = tmp_path / "pair.jsonl"
    assert run(["gen-data", "--kind", "regular-pair", "--out", str(out)]) == 0
    ds = G.load_graphs(out)
    assert len(ds.graphs) == 2
    assert sorted(g.target for g in ds.graphs) == [0.0, 2.0]
    assert "config gen-data" in capsys.readouterr().out


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run(["gen-data", "--count", "20", "--nodes", "6", "--seed", "3",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl.split.json").read_bytes() == \
        (tmp_path / "b.jsonl.split.json").read_bytes()


def test_gen_data_count_zero(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert run(["gen-data", "--count", "0", "--out", str(out)]) == 0
    assert len(G.load_graphs(out).graphs) == 0


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["gen-data", "--frobnicate", "1", "--out", str(tmp_path / "x.jsonl")])
    assert exc.value.code != 0


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "prop99"])
    assert exc.value.code != 0


def test_verify_single_suite(capsys):
    assert run(["verify", "--suite", "prop3", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] prop3" in out
    assert "1/1 properties hold" in out


def test_verify_all(capsys):
    assert run(["verify", "--suite", "all", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    for prop in ("lemma1", "prop1", "prop2", "prop3", "prop4", "eq5", "appendixG"):
        assert f"[PASS] {prop}" in out
    assert "7/7 properties hold" in out


def test_compare_gat(capsys):
    assert run(["compare-gat", "--trials", "3", "--heads", "1", "2",
                "--widths", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_train_zero_lr_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "metrics.csv"
    assert run(["train", "--model", "expc", "--s", "4", "--width", "4",
                "--epochs", "1", "--lr", "0", "--count", "20",
                "--csv", str(csv_path)]) == 0
    text = csv_path.read_text()
    header = text.splitlines()[0]
    assert header == "model,s,re_sum,seed,epoch,train_loss,valid_loss,test_metric,seconds"
    assert "train expc-4" in capsys.readouterr().out


def test_train_checkpoint_and_analyze_rank(tmp_path, capsys):
    ckpt = tmp_path / "model"
    assert run(["train", "--model", "expc", "--s", "3", "--width", "4",
                "--epochs", "1", "--lr", "0.01", "--count", "20",
                "--out", str(ckpt)]) == 0
    assert (tmp_path / "model.json").exists()
    assert (tmp_path / "model.bin").exists()
    capsys.readouterr()
    assert run(["analyze-rank", "--checkpoint", str(ckpt), "--count", "20",
                "--graph-index", "2"]) == 0
    out = capsys.readouterr().out
    assert "rank(coefficients), rank(local features), rank(aggregate)" in out
    assert "v=0:" in out


def test_analyze_rank_bad_index(tmp_path, capsys):
    ckpt = tmp_path / "model"
    run(["train", "--model", "expc", "--width", "3", "--epochs", "1",
         "--lr", "0", "--count", "5", "--out", str(ckpt)])
    capsys.readouterr()
    assert run(["analyze-rank", "--checkpoint", str(ckpt), "--count", "5",
                "--graph-index", "99"]) == 1


def test_ablate_tiny(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AGGLAB_THREADS", "1")
    csv_path = tmp_path / "ablate.csv"
    assert run(["ablate", "--seeds", "3", "--s-values", "2",
                "--budget-width", "3", "--epochs", "2", "--count", "24",
                "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "model,s,re_sum,seed,test_mae,median_test_mae"
    assert len(lines) == 1 + 6 * 3  # 6 cells x 3 seeds
    out = capsys.readouterr().out
    for label in ("ExpC*-1", "ExpC-1", "ExpC-2", "CombC*", "CombC", "GCN"):
        assert label in out


def test_ablate_csv_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("AGGLAB_THREADS", "1")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["ablate", "--seeds", "3", "--s-values", "2",
                    "--budget-width", "3", "--epochs", "2", "--count", "20",
                    "--csv", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_error_paths_return_nonzero(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert run(["train", "--data", str(missing), "--epochs", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_cross_entropy_infers_classes(tmp_path, capsys):
    import json
    import numpy as np
    from agglab import graphs as G
    graphs = G.gen_er_triangle_dataset(20, n_nodes=5, p=0.4, seed=1).graphs
    for g in graphs:
        g.target = 0 if g.target == 0 else 1
    n = len(graphs)
    ds = G.Dataset(graphs, {"train": list(range(14)), "valid": [14, 15, 16],
                            "test": [17, 18, 19]})
    path = tmp_path / "cls.jsonl"
    G.save_graphs(ds, path)
    assert run(["train", "--model", "gin0", "--width", "3", "--epochs", "2",
                "--lr", "0.01", "--loss", "cross_entropy",
                "--data", str(path)]) == 0
    out = capsys.readouterr().out
    assert "test cross_entropy" in out  # accuracy metric line


def test_verify_failure_prints_witness_and_exits_nonzero(capsys, monkeypatch):
    from agglab import verify as V

    def failing(trials=1, seed=0):
        return {"property": "prop1", "verdict": False,
                "detail": {"forced": True}, "witness": [[1.0, 2.0]]}

    monkeypatch.setitem(V.SUITES, "prop1", failing)
    assert run(["verify", "--suite", "prop1"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] prop1" in out
    assert '"witness": [[1.0, 2.0]]' in out


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_agglab_threads_fails_cleanly(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AGGLAB_THREADS", value)
    assert run(["ablate", "--seeds", "3", "--budget-width", "3", "--epochs", "1",
                "--count", "10"]) == 1
    err = capsys.readouterr().err
    assert "AGGLAB_THREADS" in err and repr(value) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--suite", "prop4", "--trials", "-1"], "trials"),
    (["verify", "--suite", "all", "--trials", "0"], "trials"),
    (["compare-gat", "--trials", "0"], "trials"),
    (["compare-gat", "--heads", "2", "0"], "heads"),
    (["compare-gat", "--widths", "0"], "widths"),
])
def test_runs_that_check_nothing_are_rejected(argv, flag, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and "Traceback" not in captured.err
    assert "PASS" not in captured.out


def test_analyze_rank_skips_layers_it_cannot_report(tmp_path, capsys):
    from agglab import layers as L
    combc = tmp_path / "combc"
    assert run(["train", "--model", "combc", "--width", "3", "--epochs", "1",
                "--lr", "0", "--count", "5", "--out", str(combc)]) == 0
    capsys.readouterr()
    assert run(["analyze-rank", "--checkpoint", str(combc), "--count", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("(COMBC): skipped") == 2 and "v=0:" not in captured.out
    assert "no EXPC" in captured.err

    mixed = tmp_path / "mixed"
    L.save_model(L.Model([L.LayerSpec("EXPC_MULTIAGG", 1, 3, s=2),
                          L.LayerSpec("EXPC", 3, 3, s=2)]), mixed)
    assert run(["analyze-rank", "--checkpoint", str(mixed), "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "layer 0 (EXPC_MULTIAGG): skipped" in out
    assert "layer 1 (EXPC, s=2)" in out and "layer 0 (EXPC_MULTIAGG, s=" not in out


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.update(order="F"), "'order'"),
    (lambda m: m.update(dtype=">f4"), "'dtype'"),
    (lambda m: m.pop("seed"), "'seed'"),
    (lambda m: m["layers"][0].update(width=3), "'width'"),
    (lambda m: m["layers"][0].pop("d_out"), "'d_out'"),
])
def test_a_manifest_load_model_cannot_use_is_rejected(edit, field, tmp_path, capsys):
    from agglab import layers as L
    ckpt = tmp_path / "ckpt"
    L.save_model(L.Model([L.LayerSpec("EXPC", 1, 3, s=2)]), ckpt)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    edit(manifest)
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=field):
        L.load_model(ckpt)
    assert run(["analyze-rank", "--checkpoint", str(ckpt), "--count", "5"]) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("loss", ["MAE", "cross_entropy"])
def test_train_rejects_an_unlabeled_graph_before_any_step(loss, tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert run(["gen-data", "--count", "10", "--nodes", "5", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    record = json.loads(lines[8])
    record["target"] = None
    lines[8] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--epochs", "1", "--loss", loss]) == 1
    err = capsys.readouterr().err
    assert "valid split: graph 8 has no target" in err
    assert "non-finite" not in err and "Traceback" not in err


@pytest.mark.parametrize("target", ['"three"', "[1, 2]", "true", "NaN"])
def test_train_rejects_a_target_that_is_not_a_finite_number(target, tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert run(["gen-data", "--count", "10", "--nodes", "5", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    lines[3] = lines[3].rsplit('"target": ', 1)[0] + f'"target": {target}}}'
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert "line 4: target" in err and "not a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, field", [
    (["--batch-size", "-3"], "batch_size"),
    (["--batch-size", "0"], "batch_size"),
    (["--lr-step", "0"], "lr_step_size"),
    (["--lr-step", "-1"], "lr_step_size"),
    (["--width", "0"], "d_out"),
    (["--lr", "nan"], "lr"),
    (["--lr", "inf"], "lr"),
], ids=lambda v: "=".join(v) if isinstance(v, list) else v)
def test_train_rejects_a_flag_that_trains_nothing_or_trains_wrong(flags, field, capsys):
    # a negative batch size trained no batch, a negative step raised the rate,
    # and a non-finite rate trained to a NaN model with exit 0
    assert run(["train", "--epochs", "1", "--count", "10", "--nodes", "5"] + flags) == 1
    captured = capsys.readouterr()
    assert field in captured.err and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and "final train loss" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (["ablate", "--n-layers", "0", "--seeds", "3", "--epochs", "1", "--count", "10"],
     "a model needs at least one layer spec"),
    (["gen-data", "--count", "-5"], "count must be >= 0, got -5"),
    (["gen-data", "--count", "3", "--nodes", "-2"], "n_nodes must be >= 0, got -2"),
], ids=["ablate--n-layers=0", "gen-data--count=-5", "gen-data--nodes=-2"])
def test_a_size_below_the_minimum_fails_early_and_clearly(argv, message, tmp_path, capsys):
    # ablate failed in readout after 192 empty models per cell; gen-data
    # wrote an empty file for -5 graphs and numpy's message for -2 nodes
    out = tmp_path / "d.jsonl"
    if argv[0] == "gen-data":
        argv = argv + ["--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("record", [
    '{"num_nodes": 3.7, "edges": [], "node_features": [[1.0], [1.0], [1.0]], "target": 0}',
    '{"num_nodes": 3, "edges": [[0, 1.9]], "node_features": [[1.0], [1.0], [1.0]], "target": 0}',
    '{"num_nodes": 3, "edges": [], "node_features": [[1.0], [NaN], [1.0]], "target": 0}',
], ids=["num_nodes", "edge", "node_feature"])
def test_train_rejects_a_dataset_field_of_the_wrong_type(record, tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert run(["gen-data", "--count", "10", "--nodes", "5", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    lines[6] = record
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 7: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["-1", "2.5"])
def test_cross_entropy_rejects_a_target_that_is_not_a_class_index(target, tmp_path, capsys):
    # -1 trained as the last class and 2.5 as class 2
    data = tmp_path / "d.jsonl"
    assert run(["gen-data", "--count", "10", "--nodes", "5", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    lines[3] = lines[3].rsplit('"target": ', 1)[0] + f'"target": {target}}}'
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--epochs", "1", "--loss", "cross_entropy"]) == 1
    err = capsys.readouterr().err
    assert f"graph 3 has target {target};" in err and "class index" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert run(["train", "--data", str(data), "--epochs", "1"]) == 0  # a fine MAE target


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.update(layers=[5]), "layer 0 spec is 5"),
    (lambda m: m.update(params=5), "'params' is not a list"),
    (lambda m: m.update(seed="x"), "'seed' is 'x'"),
    (lambda m: m["layers"][0].update(d_out="3"), "d_out must be an int"),
    (lambda m: m.update(readout_mode="FOO"), "readout mode 'FOO'"),
    (lambda m: m.update(head_dim=0), "head_dim must be an int"),
    (lambda m: m["layers"][0].update(re_sum=1), "re_sum must be a bool"),
], ids=["layers", "params", "seed", "d_out", "readout_mode", "head_dim", "re_sum"])
def test_a_manifest_field_of_the_wrong_type_is_rejected(edit, field, tmp_path, capsys):
    from agglab import layers as L
    ckpt = tmp_path / "ckpt"
    L.save_model(L.Model([L.LayerSpec("EXPC", 1, 3, s=2)]), ckpt)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    edit(manifest)
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    assert run(["analyze-rank", "--checkpoint", str(ckpt), "--count", "5"]) == 1
    err = capsys.readouterr().err
    assert field in err and err.count("\n") == 1 and "Traceback" not in err


def featured_dataset(path, width=3, count=20):
    """An ER triangle dataset whose nodes carry `width` normal features."""
    rng = np.random.default_rng(4)
    ds = G.gen_er_triangle_dataset(count, n_nodes=5, p=0.4, seed=2)
    graphs = [G.Graph(g.num_nodes, g.edges, rng.standard_normal((g.num_nodes, width)), g.target)
              for g in ds.graphs]
    G.save_graphs(G.Dataset(graphs, ds.split), path)


@pytest.mark.parametrize("model", ["gcn", "gin0", "expc", "combc"])
def test_train_reads_the_feature_width_from_the_data(model, tmp_path, capsys):
    # with d_in fixed at 1 every model ended in "matmul: shape mismatch (440, 6) vs (2, 1)"
    data, ckpt = tmp_path / "d.jsonl", tmp_path / "ckpt"
    featured_dataset(data)
    assert run(["train", "--model", model, "--width", "4", "--epochs", "1",
                "--data", str(data), "--out", str(ckpt)]) == 0
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert [(sp["d_in"], sp["d_out"]) for sp in manifest["layers"]] == [(3, 4), (4, 4)]
    assert "final train loss" in capsys.readouterr().out


def test_ablate_reads_the_feature_width_from_the_data(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AGGLAB_THREADS", "1")
    data = tmp_path / "d.jsonl"
    featured_dataset(data)
    assert run(["ablate", "--seeds", "3", "--s-values", "2", "--budget-width", "3",
                "--epochs", "1", "--data", str(data)]) == 0
    assert capsys.readouterr().out.count("median test MAE") == 6


@pytest.mark.parametrize("flags", [
    ["--model", "gcn", "--s", "4"],
    ["--model", "gin0", "--s", "2"],
    ["--model", "combc", "--s", "4"],
    ["--model", "gcn", "--no-re-sum"],
    ["--model", "gin0", "--no-re-sum"],
], ids=lambda v: "=".join(v))
def test_train_rejects_a_flag_its_model_does_not_read(flags, tmp_path, capsys):
    # gcn --s 4 --no-re-sum trained a plain GCN and exited 0
    ckpt = tmp_path / "ckpt"
    assert run(["train", "--epochs", "1", "--count", "10", "--nodes", "5",
                "--out", str(ckpt)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flags[2]}") and captured.err.count("\n") == 1
    assert "final train loss" not in captured.out and not (tmp_path / "ckpt.json").exists()


@pytest.mark.parametrize("flags", [["--model", "combc", "--no-re-sum"],
                                   ["--model", "expc", "--s", "2", "--no-re-sum"]],
                         ids=lambda v: "=".join(v))
def test_train_accepts_the_flags_its_model_reads(flags):
    assert run(["train", "--epochs", "1", "--count", "10", "--nodes", "5"] + flags) == 0


BAD_SIDECARS = {
    "index-list-a-string": {"train": "abc", "valid": [], "test": []},
    "no-test-list": {"train": list(range(8)), "valid": [8, 9]},
    "a-json-list": [list(range(8)), [8], [9]],
    "a-float-index": {"train": list(range(8)), "valid": [8], "test": [4.0]},
}


@pytest.mark.parametrize("name", BAD_SIDECARS)
def test_train_rejects_a_malformed_split_sidecar(name, tmp_path, capsys):
    # each ended `train --data` in a TypeError or KeyError traceback
    data = tmp_path / "d.jsonl"
    assert run(["gen-data", "--count", "10", "--nodes", "5", "--out", str(data)]) == 0
    sidecar = tmp_path / "d.jsonl.split.json"
    sidecar.write_text(json.dumps(BAD_SIDECARS[name]))
    with pytest.raises(G.GraphFileError, match=re.escape(f"split sidecar {sidecar}: ")):
        G.load_graphs(data)
    capsys.readouterr()
    assert run(["train", "--data", str(data), "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: split sidecar {sidecar}: ") and err.count("\n") == 1


def test_gen_data_refuses_graphs_without_nodes(tmp_path, capsys):
    # it wrote a file that train --data could not read back
    out = tmp_path / "d.jsonl"
    assert run(["gen-data", "--count", "3", "--nodes", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: graph 0 has no nodes; a dataset file cannot hold it\n"
    assert not out.exists()


# ---- dataset-file fuzzing --------------------------------------------------

NOT_AN_INT = [1.5, "0", True, None, [0], {}]
NOT_A_NUMBER = ["1.5", True, None, [1.0], {}, math.nan, math.inf]


@st.composite
def mutated_records(draw, rec):
    """One invalid mutation of a valid record (a dict) of n nodes: the
    line's new text and the words of which its error must name one."""
    n, edges, feats = rec["num_nodes"], rec["edges"], rec["node_features"]
    what = draw(st.sampled_from(["record", "truncate", "missing", "num_nodes", "edges",
                                 "edge", "node_features", "row", "ragged", "feature",
                                 "width", "target"]))
    words = (what,)
    if what == "record":
        rec = draw(st.sampled_from([[], [rec], "graph", 3, None, True]))
    elif what == "truncate":
        text = json.dumps(rec)
        return text[:draw(st.integers(1, len(text) - 1))], ("malformed JSON",)
    elif what == "missing":
        words = (draw(st.sampled_from(["num_nodes", "edges", "node_features"])),)
        del rec[words[0]]
    elif what == "num_nodes":
        rec["num_nodes"] = draw(st.sampled_from(NOT_AN_INT + [-1, n + 1, n - 1, 10**30]))
        words = ("num_nodes", "node_features")
    elif what == "edges":
        rec["edges"] = draw(st.sampled_from([None, 3, "01", {"0": 1}]))
    elif what == "edge":
        bad = draw(st.sampled_from([3, None, "01", [], [0], [0, 1, 2], [n, 0], [-1, 0],
                                    [1, 1]] + [[0, end] for end in NOT_AN_INT]))
        edges.insert(draw(st.integers(0, len(edges))), bad)
        words = ("edge", "self-loop")
    elif what == "node_features":
        rec["node_features"] = draw(st.sampled_from([None, 1.0, "x", {"0": [1.0]}, [1.0] * n]))
    elif what == "row":
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            feats[i] = draw(st.sampled_from([1.0, None, "x", {}]))
        else:
            del feats[i]
        words = ("node_features",)
    elif what == "ragged":
        feats[draw(st.integers(0, n - 1))].append(1.0)
        words = ("node_features",)
    elif what == "feature":
        feats[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from(NOT_A_NUMBER))
        words = ("node feature",)
    elif what == "width":
        for row in feats:
            row.append(0.5)
        words = ("node features",)
    else:
        # null is no mutation: a graph may have no target
        rec["target"] = draw(st.sampled_from([x for x in NOT_A_NUMBER if x is not None]
                                             + [-math.inf, 10**400]))
    return json.dumps(rec), words


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_mutated_dataset_line_is_a_file_error_naming_its_line_and_field(data):
    ds = G.gen_er_triangle_dataset(3, n_nodes=4, seed=data.draw(st.integers(0, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        G.save_graphs(ds, path)
        lines = path.read_text().splitlines()
        lines[1], words = data.draw(mutated_records(json.loads(lines[1])))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(G.GraphFileError) as raised:
            G.load_graphs(path)
        message = str(raised.value)
        assert message.startswith("line 2: ")
        assert any(w in message for w in words), (words, message)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["train", "--data", str(path), "--epochs", "1"]) == 1
        assert err.getvalue() == f"error: {message}\n"


@st.composite
def mutated_sidecars(draw):
    """A split of 6 graphs with one invalid mutation."""
    split = {"train": [0, 1, 2, 3], "valid": [4], "test": [5]}
    what = draw(st.sampled_from(["object", "missing", "list", "index", "range", "overlap"]))
    name = draw(st.sampled_from(sorted(split)))
    if what == "object":
        return draw(st.sampled_from([[], None, 3, "split", [split]]))
    if what == "missing":
        del split[name]
    elif what == "list":
        split[name] = draw(st.sampled_from([None, 0, "0", {"0": 0}]))
    elif what == "index":
        split[name][0] = draw(st.sampled_from(NOT_AN_INT))
    elif what == "range":
        split[name][0] = draw(st.sampled_from([-1, 6, 10**30]))
    else:
        split[name].append(split["test" if name != "test" else "train"][0])
    return split


@settings(max_examples=100, deadline=None)
@given(mutated_sidecars())
def test_every_mutated_split_sidecar_is_a_file_error_naming_the_sidecar(split):
    ds = G.gen_er_triangle_dataset(6, n_nodes=4, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        G.save_graphs(ds, path)
        sidecar = Path(G.split_path(path))
        sidecar.write_text(json.dumps(split))
        with pytest.raises(G.GraphFileError) as raised:
            G.load_graphs(path)
        message = str(raised.value)
        assert message.startswith(f"split sidecar {sidecar}: ")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["train", "--data", str(path), "--epochs", "1"]) == 1
        assert err.getvalue() == f"error: {message}\n"
