import json

import numpy as np
import pytest

from maxminsp.datasets import (
    Dataset,
    DatasetFormatError,
    load_bayes_sidecar,
    load_dataset,
    make_synth,
    save_dataset,
    synth_blobs,
    synth_flatnoise,
    synth_hmm,
    synth_ordinal,
    synth_ranking,
)


def test_tabular_roundtrip(tmp_path):
    ds, _, _ = synth_blobs(n=25, k=3, seed=0)
    p = tmp_path / "blobs.csv"
    save_dataset(ds, p)
    back = load_dataset(p, "multiclass")
    assert back.ys == ds.ys
    assert np.max(np.abs(back.xs - ds.xs)) < 1e-9
    assert back.task_params["k"] == 3


def test_sequence_roundtrip(tmp_path):
    ds, _, _ = synth_hmm(n=15, M=3, R=3, seed=1)
    p = tmp_path / "chains.tsv"
    save_dataset(ds, p)
    back = load_dataset(p, "chain")
    assert back.ys == ds.ys
    assert np.max(np.abs(back.xs - ds.xs)) < 1e-9
    assert back.task_params == {"M": 3, "R": 3}


def test_sequence_roundtrip_letter_alphabet(tmp_path):
    # alphabets past 9 switch to letters; letters must also parse for small R
    ds, _, _ = synth_hmm(n=6, M=2, R=2, seed=2)
    ds = Dataset(ds.xs, ds.ys, "chain", {"M": 2, "R": 12})
    p = tmp_path / "chains.tsv"
    save_dataset(ds, p)
    text = p.read_text()
    assert all(ch.islower() or not ch.isalpha() for ch in text.split("\t")[1])
    back = load_dataset(p, "chain")
    assert back.ys == ds.ys


def test_ranking_roundtrip(tmp_path):
    ds, _, _ = synth_ranking(n=20, M=4, seed=3)
    p = tmp_path / "ranks.csv"
    save_dataset(ds, p)
    back = load_dataset(p, "ranking")
    assert back.ys == ds.ys
    assert np.max(np.abs(back.xs - ds.xs)) < 1e-9


def _write(tmp_path, text, name="bad.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_tabular_parse_errors(tmp_path):
    cases = [
        ("", 1),
        ("feature_0,klass\n1.0,1\n", 1),
        ("feature_0,label\n1.0\n", 2),
        ("feature_0,label\nx,1\n", 2),
        ("feature_0,label\n1.0,zero\n", 2),
        ("feature_0,label\n1.0,0\n", 2),
        ("feature_0,label\n", 1),
        ("feature_0,label\nnan,1\n", 2),  # float() parses nan and inf
        ("feature_0,label\n1.0,1\n-Infinity,2\n", 3),
    ]
    for text, line in cases:
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(_write(tmp_path, text), "multiclass")
        assert exc.value.line_no == line


def test_sequence_parse_errors(tmp_path):
    cases = [
        ("seq0\t12\n", 1),  # missing field
        ("seq0\t1Z\t0.1|0.2\n", 1),  # bad label character
        ("seq0\t12\t0.1\n", 1),  # one block for two labels
        ("seq0\t12\t0.1|0.2\nseq1\t121\t0.1|0.2|0.3\n", 2),  # length change
        ("seq0\t12\t0.1|x\n", 1),  # bad feature
        ("seq0\t12\t0.1|0.2\nseq1\t12\t0.1|inf\n", 2),  # non-finite feature
        ("seq0\t12\tNaN,0.1|0.2,0.3\n", 1),
        ("", 1),
    ]
    for text, line in cases:
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(_write(tmp_path, text, "bad.tsv"), "chain")
        assert exc.value.line_no == line


def test_ranking_parse_errors(tmp_path):
    cases = [
        ("feature_0,rank_1,rank_2\n0.5,1,1\n", 2),  # not a permutation
        ("feature_0,rank_1,rank_2\n0.5,1\n", 2),  # short row
        ("feature_0,order_1\n0.5,1\n", 1),  # bad header
        ("feature_0,rank_1,rank_2\n0.5,a,b\n", 2),  # bad rank values
        ("feature_0,rank_1,rank_2\nnan,1,2\n", 2),  # non-finite features
        ("feature_0,rank_1,rank_2\n0.5,1,2\ninf,2,1\n", 3),
    ]
    for text, line in cases:
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(_write(tmp_path, text), "ranking")
        assert exc.value.line_no == line


def test_missing_file_and_unknown_kind(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.csv", "multiclass")
    with pytest.raises(ValueError):
        load_dataset(_write(tmp_path, "feature_0,label\n1,1\n"), "graph")


def test_blobs_bayes_risk_limits():
    _, _, risk_hard = synth_blobs(n=50, k=3, separation=0.0, seed=0)
    assert abs(risk_hard - 2.0 / 3.0) < 0.01
    _, _, risk_easy = synth_blobs(n=50, k=3, separation=12.0, seed=0)
    assert risk_easy < 1e-3


def test_flatnoise_bayes_risk_is_one_minus_max():
    ds, bayes, risk = synth_flatnoise(n=500, probs=(0.4, 0.35, 0.25), seed=0)
    assert risk == pytest.approx(0.6)
    assert set(bayes) == {1}
    # empirical label frequencies close to the mixture
    freq = np.bincount(ds.ys, minlength=4)[1:] / 500
    assert np.max(np.abs(freq - np.array([0.4, 0.35, 0.25]))) < 0.06


def test_ordinal_generator_valid_labels():
    ds, bayes, risk = synth_ordinal(n=300, k=5, seed=4)
    assert all(1 <= y <= 5 for y in ds.ys)
    assert all(1 <= b <= 5 for b in bayes)
    assert 0.0 < risk < 1.0


def test_hmm_generator_and_sidecar(tmp_path):
    p = tmp_path / "hmm.tsv"
    ds = make_synth("hmm", p, seed=5, n=40, M=3, R=2)
    assert ds.task_kind == "chain"
    side = load_bayes_sidecar(p)
    assert 0.0 <= side["bayes_risk"] <= 1.0
    assert len(side["labels"]) == 40
    assert all(len(y) == 3 for y in side["labels"])
    back = load_dataset(p, "chain")
    assert back.ys == ds.ys


def test_ranking_generator_valid_permutations():
    ds, bayes, _ = synth_ranking(n=50, M=4, seed=6)
    for y in ds.ys + bayes:
        assert sorted(y) == [1, 2, 3, 4]


def test_make_synth_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    make_synth("blobs", p1, seed=9, n=30, k=3)
    make_synth("blobs", p2, seed=9, n=30, k=3)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads((tmp_path / "a.csv.bayes.json").read_text()) == json.loads(
        (tmp_path / "b.csv.bayes.json").read_text()
    )


def test_make_synth_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        make_synth("spirals", tmp_path / "x.csv", seed=0, n=10)
