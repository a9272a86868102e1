import json

import numpy as np
import pytest
from click.testing import CliRunner

from maxminsp.cli import _split_indices, _table, main


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _synth_blobs(tmp_path, n=60, seed=0):
    p = tmp_path / "blobs.csv"
    res = run(["synth", "--kind", "blobs", "--n", str(n), "--seed", str(seed),
               "--out", str(p), "--param", "k=3", "--param", "separation=3.0"])
    assert res.exit_code == 0, res.output
    return p


def test_synth_writes_dataset_and_sidecar(tmp_path):
    p = _synth_blobs(tmp_path)
    assert p.exists() and (tmp_path / "blobs.csv.bayes.json").exists()
    assert p.read_text().startswith("feature_0,feature_1,label\n")


def test_synth_bad_param_exits_2(tmp_path):
    res = run(["synth", "--kind", "blobs", "--n", "10",
               "--out", str(tmp_path / "x.csv"), "--param", "knobs"])
    assert res.exit_code == 2
    res = run(["synth", "--kind", "nothing", "--n", "10", "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2


def test_train_single_lambda(tmp_path):
    p = _synth_blobs(tmp_path)
    out = tmp_path / "out"
    res = run(["train", "--data", str(p), "--task", "multiclass", "--lambda", "0.1",
               "--passes", "3", "--spmp-iters", "10", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["lambda"] == 0.1 and 0.0 <= rec["test_loss"] <= 1.0
    assert "wall_ms" not in lines[0]
    diag = (out / "diagnostics.jsonl").read_text().splitlines()
    assert len(diag) == 3 and all("wall_ms" in ln for ln in diag)


def test_train_grid_selects_by_validation(tmp_path):
    p = _synth_blobs(tmp_path)
    out = tmp_path / "out"
    res = run(["train", "--data", str(p), "--task", "multiclass",
               "--lambda-grid", "0.05,0.5", "--passes", "3", "--spmp-iters", "10",
               "--out", str(out)])
    assert res.exit_code == 0, res.output
    recs = [json.loads(ln) for ln in (out / "results.jsonl").read_text().splitlines()]
    assert [r["lambda"] for r in recs] == [0.05, 0.5]
    best = min(recs, key=lambda r: r["val_loss"])
    assert f"selected lambda={best['lambda']}" in res.output


def test_train_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("feature_0,label\noops,1\n")
    res = run(["train", "--data", str(bad), "--task", "multiclass", "--lambda", "0.1",
               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    res = run(["train", "--data", str(_synth_blobs(tmp_path)), "--task", "multiclass",
               "--lambda-grid", "0.1,nope", "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    # float() parses nan, so a nan feature cell must fail parsing, not training
    bad.write_text("feature_0,label\n0.5,1\nnan,2\n")
    res = run(["train", "--data", str(bad), "--task", "multiclass", "--lambda", "0.1",
               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "bad.csv:3: non-finite feature value" in res.output


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_failure_exits_3(tmp_path):
    # huge-but-finite features parse cleanly yet overflow the kernel matrix,
    # so the failure surfaces during training rather than parsing
    p = tmp_path / "inf.csv"
    rows = ["feature_0,label"] + [f"{(-1)**i * 1e308},{1 + i % 2}" for i in range(10)]
    p.write_text("\n".join(rows) + "\n")
    res = run(["train", "--data", str(p), "--task", "multiclass", "--lambda", "0.1",
               "--kernel-gamma", "1.0", "--passes", "1", "--out", str(tmp_path / "o")])
    assert res.exit_code == 3


def test_rerun_byte_identical(tmp_path):
    p = _synth_blobs(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        res = run(["train", "--data", str(p), "--task", "multiclass", "--lambda", "0.1",
                   "--passes", "2", "--spmp-iters", "10", "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append((out / "results.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_bench_table_and_summary(tmp_path):
    p = _synth_blobs(tmp_path, n=50)
    out = tmp_path / "bench"
    res = run(["bench", "--data", str(p), "--task", "multiclass", "--lambda", "0.2",
               "--passes", "2", "--spmp-iters", "8", "--splits", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    recs = [json.loads(ln) for ln in (out / "results.jsonl").read_text().splitlines()]
    assert [r["split_seed"] for r in recs] == [0, 1, 2]
    losses = [r["test_loss"] for r in recs]
    table = (out / "table.txt").read_text()
    assert f"{float(np.mean(losses)):.4f}" in table
    assert f"{float(np.std(losses)):.4f}" in table


def test_split_indices_deterministic_and_disjoint():
    a = _split_indices(100, seed=3, data_hash=123)
    b = _split_indices(100, seed=3, data_hash=123)
    for x, y in zip(a, b):
        assert (x == y).all()
    c = _split_indices(100, seed=4, data_hash=123)
    assert not all((x == y).all() for x, y in zip(a, c))
    all_idx = np.concatenate(a)
    assert sorted(all_idx) == list(range(100))
    assert len(a[0]) == 60 and len(a[1]) == 20 and len(a[2]) == 20


def test_table_formatting():
    rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
    text = _table(rows, ["a", "b"])
    lines = text.splitlines()
    assert "a" in lines[0] and "b" in lines[0]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4


def test_calib_multiclass(tmp_path):
    out = tmp_path / "calib"
    res = run(["calib", "--task", "multiclass", "--k", "3", "--budget", "500",
               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rec = json.loads((out / "results.jsonl").read_text().splitlines()[0])
    assert rec["constant_c"] == 3.0
    assert set(rec["zeta_lower"]) == {"0.1", "0.3", "0.5"}


def test_calib_ranking_reports_d_bound(tmp_path):
    out = tmp_path / "calibr"
    res = run(["calib", "--task", "ranking", "--rank-m", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rec = json.loads((out / "results.jsonl").read_text().splitlines()[0])
    assert rec["constant_d_bound"] == 3.0


def test_calib_chain_runs_with_its_defaults(tmp_path):
    out = tmp_path / "calibc"
    res = run(["calib", "--task", "chain", "--budget", "200", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rec = json.loads((out / "results.jsonl").read_text().splitlines()[0])
    assert rec["constant_c"] == 2.0


@pytest.mark.parametrize("gamma", ["nope", "-2", "nan"])
def test_bench_bad_kernel_gamma_exits_2(tmp_path, gamma):
    p = _synth_blobs(tmp_path, n=30)
    res = run(["bench", "--data", str(p), "--task", "multiclass", "--lambda", "0.2",
               "--passes", "1", "--splits", "1", "--kernel-gamma", gamma,
               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["train", "--lambda", "0"],
    ["train", "--lambda", "-1"],
    ["train", "--lambda", "nan"],
    ["train", "--lambda", "inf"],
    ["train", "--lambda-grid", "0.1,inf"],
    ["train", "--lambda", "0.1", "--kernel-gamma", "inf"],
    ["train", "--lambda", "0.1", "--spmp-iters", "0"],
    ["train", "--lambda", "0.1", "--passes", "0"],
    ["train", "--lambda", "0.1", "--passes", "-1"],
    ["bench", "--lambda", "0.1", "--splits", "0"],
])
def test_bad_numeric_training_options_exit_2(tmp_path, args):
    p = _synth_blobs(tmp_path, n=30)
    res = run([*args, "--data", str(p), "--task", "multiclass", "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_synth_bad_count_exits_2(tmp_path, n):
    out = tmp_path / "blobs.csv"
    res = run(["synth", "--kind", "blobs", "--n", n, "--out", str(out)])
    assert res.exit_code == 2
    assert "--n" in res.output
    assert not out.exists()


def test_calib_zero_budget_exits_2(tmp_path):
    res = run(["calib", "--task", "multiclass", "--budget", "0", "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert not (tmp_path / "o").exists()


def test_calib_chain_beyond_length_one(tmp_path):
    out = tmp_path / "calibc2"
    res = run(["calib", "--task", "chain", "--chain-m", "2", "--budget", "20",
               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rec = json.loads((out / "results.jsonl").read_text().splitlines()[0])
    zetas = list(rec["zeta_lower"].values())
    assert len(zetas) == 3 and all(np.isfinite(zetas))


@pytest.mark.parametrize("args", [
    ["calib", "--task", "multiclass", "--k", "1", "--budget", "10"],
    ["calib", "--task", "ordinal", "--k", "1", "--budget", "10"],
    ["calib", "--task", "chain", "--chain-r", "1", "--budget", "10"],
    ["train", "--task", "multiclass", "--lambda", "0.1"],
    ["calib", "--task", "chain", "--chain-m", "0", "--budget", "10"],
])
def test_one_label_tasks_exit_2(tmp_path, args):
    # one label leaves the solver no entropy range to step in
    p = tmp_path / "ones.csv"
    p.write_text("feature_0,label\n" + "".join(f"{i}.0,1\n" for i in range(10)))
    if args[0] == "train":
        args = [*args, "--data", str(p)]
    res = run([*args, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert not (tmp_path / "o").exists()
