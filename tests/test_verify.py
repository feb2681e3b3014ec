import numpy as np
import pytest

from agglab import analysis as A
from agglab import verify as V


def test_every_passing_suite_returns_no_witness():
    results = V.run_suite("all")
    assert [r["property"] for r in results] == list(V.SUITES)
    for r in results:
        assert r["verdict"] is True, r["property"]
        assert r["witness"] is None, r["property"]
    appendix = results[-1]["detail"]["strict_gain_example"]
    assert len(appendix) == 2 and appendix[0] != appendix[1]


def test_appendixG_failure_carries_the_trial_matrix(monkeypatch):
    # with the extension replaced by plain SUM, no trial gains a separation
    monkeypatch.setattr(A, "MatrixAggregator", lambda M: A.BasicAggregator("SUM"))
    res = V.verify_constant_row_variants(trials=2, seed=0)
    assert res["verdict"] is False
    assert res["detail"]["strict_gain_example"] is None
    assert np.array(res["witness"]).ndim == 3  # [M], M the first trial's matrix


def test_prop4_records_every_configuration():
    res = V.verify_attention_two_routes(trials=2, seed=5, heads=(1, 3), widths=(2,))
    devs = res["detail"]["deviations"]
    assert [d[:2] for d in devs] == [[1, 2], [3, 2]]
    assert res["detail"]["max_abs_deviation"] == max(d[2] for d in devs)
    assert res["verdict"] and res["witness"] is None


@pytest.mark.parametrize("kwargs, flag", [
    (dict(name="prop4", trials=0), "trials"),
    (dict(name="all", trials=-1), "trials"),
])
def test_run_suite_rejects_runs_that_check_nothing(kwargs, flag):
    with pytest.raises(ValueError, match=flag):
        V.run_suite(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(trials=0), r"trials must be at least 1, got 0"),
    (dict(heads=[1, 0]), r"heads must be at least 1, got \[1, 0\]"),
    (dict(widths=[]), r"widths must be at least 1, got \[\]"),
], ids=["trials", "heads", "widths"])
def test_prop4_rejects_runs_that_check_nothing(kwargs, message):
    with pytest.raises(ValueError, match=message):
        V.verify_attention_two_routes(**kwargs)
