"""Dataset file formats and synthetic generators with known Bayes predictors.

Formats:
  - tabular (multiclass/ordinal): CSV with header feature_0..feature_{d-1},
    label; labels are 1-based integers.
  - sequence: one example per line, seq_id<TAB>labels<TAB>features, where
    labels is a digit string (alphabet size <= 9) or letters a..z, and
    features holds one comma-separated float block per position, blocks
    separated by '|'.
  - ranking: CSV with feature_* columns followed by rank_1..rank_M
    permutation columns.
Feature values must be finite in every format.

Generators write a `<path>.bayes.json` sidecar with per-example Bayes
predictions and the Bayes risk of the generating distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "load_dataset",
    "save_dataset",
    "synth_blobs",
    "synth_flatnoise",
    "synth_ordinal",
    "synth_hmm",
    "synth_ranking",
    "make_synth",
]


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass
class Dataset:
    """Feature matrix plus structured labels and task parameters."""

    xs: np.ndarray  # (n, d); sequences are flattened position blocks
    ys: list
    task_kind: str
    task_params: dict

    def __len__(self) -> int:
        return len(self.ys)


# ---------------------------------------------------------------------------
# parsing


def _features(cells, path, no) -> list[float]:
    """The finite feature values of one line, else DatasetFormatError."""
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise DatasetFormatError(path, no, f"bad feature value: {exc}") from None
    if not all(map(math.isfinite, values)):  # float() accepts nan and inf
        raise DatasetFormatError(path, no, "non-finite feature value")
    return values


def _parse_tabular(path: Path, kind: str) -> Dataset:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise DatasetFormatError(path, 1, "empty file")
    header = lines[0].split(",")
    if header[-1] != "label" or any(
        h != f"feature_{i}" for i, h in enumerate(header[:-1])
    ):
        raise DatasetFormatError(path, 1, "expected header feature_0,...,label")
    d = len(header) - 1
    xs, ys = [], []
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != d + 1:
            raise DatasetFormatError(path, no, f"expected {d + 1} columns, got {len(cells)}")
        xs.append(_features(cells[:-1], path, no))
        try:
            y = int(cells[-1])
        except ValueError:
            raise DatasetFormatError(path, no, f"bad label {cells[-1]!r}") from None
        if y < 1:
            raise DatasetFormatError(path, no, f"labels are 1-based, got {y}")
        ys.append(y)
    if not ys:
        raise DatasetFormatError(path, 1, "no data rows")
    k = max(ys)
    return Dataset(np.array(xs), ys, kind, {"k": k})


def _label_to_symbols(label: str, path, no) -> tuple[int, ...]:
    out = []
    for ch in label:
        if ch.isdigit() and ch != "0":
            out.append(int(ch))
        elif "a" <= ch <= "z":
            out.append(ord(ch) - ord("a") + 1)
        else:
            raise DatasetFormatError(path, no, f"bad label character {ch!r}")
    return tuple(out)


def _symbols_to_label(y: tuple, R: int) -> str:
    if R <= 9:
        return "".join(str(c) for c in y)
    return "".join(chr(ord("a") + c - 1) for c in y)


def _parse_sequence(path: Path) -> Dataset:
    xs, ys = [], []
    M = d = None
    with open(path) as fh:
        for no, ln in enumerate(fh, start=1):
            ln = ln.rstrip("\n")
            if not ln.strip():
                continue
            parts = ln.split("\t")
            if len(parts) != 3:
                raise DatasetFormatError(path, no, f"expected 3 tab-separated fields, got {len(parts)}")
            _, label, blocks = parts
            y = _label_to_symbols(label, path, no)
            feats = [_features(block.split(","), path, no) for block in blocks.split("|")]
            if len(feats) != len(y):
                raise DatasetFormatError(
                    path, no, f"{len(y)} labels but {len(feats)} feature blocks"
                )
            if M is None:
                M, d = len(y), len(feats[0])
            if len(y) != M:
                raise DatasetFormatError(path, no, f"sequence length {len(y)} != {M}")
            if any(len(f) != d for f in feats):
                raise DatasetFormatError(path, no, "inconsistent per-position feature counts")
            xs.append(np.concatenate(feats))
            ys.append(y)
    if not ys:
        raise DatasetFormatError(path, 1, "no data rows")
    R = max(max(y) for y in ys)
    return Dataset(np.array(xs), ys, "chain", {"M": M, "R": R})


def _parse_ranking(path: Path) -> Dataset:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise DatasetFormatError(path, 1, "empty file")
    header = lines[0].split(",")
    d = sum(1 for h in header if h.startswith("feature_"))
    M = sum(1 for h in header if h.startswith("rank_"))
    expected = [f"feature_{i}" for i in range(d)] + [f"rank_{j + 1}" for j in range(M)]
    if header != expected or M < 1:
        raise DatasetFormatError(path, 1, "expected header feature_0..,rank_1..rank_M")
    xs, ys = [], []
    for no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != d + M:
            raise DatasetFormatError(path, no, f"expected {d + M} columns, got {len(cells)}")
        xs.append(_features(cells[:d], path, no))
        try:
            y = tuple(int(c) for c in cells[d:])
        except ValueError as exc:
            raise DatasetFormatError(path, no, f"bad rank value: {exc}") from None
        if sorted(y) != list(range(1, M + 1)):
            raise DatasetFormatError(path, no, f"{y!r} is not a permutation of 1..{M}")
        ys.append(y)
    if not ys:
        raise DatasetFormatError(path, 1, "no data rows")
    return Dataset(np.array(xs), ys, "ranking", {"M": M})


def load_dataset(path, task_kind: str) -> Dataset:
    """Parse a dataset file in the format of the given task family."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if task_kind in ("multiclass", "ordinal"):
        return _parse_tabular(path, task_kind)
    if task_kind == "chain":
        return _parse_sequence(path)
    if task_kind == "ranking":
        return _parse_ranking(path)
    raise ValueError(f"unknown task kind {task_kind!r}")


def save_dataset(ds: Dataset, path) -> None:
    path = Path(path)
    if ds.task_kind in ("multiclass", "ordinal"):
        d = ds.xs.shape[1]
        with open(path, "w") as fh:
            fh.write(",".join([f"feature_{i}" for i in range(d)] + ["label"]) + "\n")
            for x, y in zip(ds.xs, ds.ys):
                fh.write(",".join(f"{v:.10g}" for v in x) + f",{y}\n")
    elif ds.task_kind == "chain":
        M, R = ds.task_params["M"], ds.task_params["R"]
        d = ds.xs.shape[1] // M
        with open(path, "w") as fh:
            for i, (x, y) in enumerate(zip(ds.xs, ds.ys)):
                blocks = "|".join(
                    ",".join(f"{v:.10g}" for v in x[m * d:(m + 1) * d]) for m in range(M)
                )
                fh.write(f"seq{i}\t{_symbols_to_label(y, R)}\t{blocks}\n")
    elif ds.task_kind == "ranking":
        d = ds.xs.shape[1]
        M = ds.task_params["M"]
        with open(path, "w") as fh:
            fh.write(",".join([f"feature_{i}" for i in range(d)] + [f"rank_{j + 1}" for j in range(M)]) + "\n")
            for x, y in zip(ds.xs, ds.ys):
                fh.write(",".join(f"{v:.10g}" for v in x) + "," + ",".join(str(c) for c in y) + "\n")
    else:
        raise ValueError(f"unknown task kind {ds.task_kind!r}")


def _write_bayes_sidecar(path, bayes_labels, bayes_risk, task_kind, params) -> None:
    payload = {
        "bayes_risk": bayes_risk,
        "task": task_kind,
        "params": params,
        "labels": [list(y) if isinstance(y, tuple) else y for y in bayes_labels],
    }
    with open(str(path) + ".bayes.json", "w") as fh:
        json.dump(payload, fh)


def load_bayes_sidecar(path) -> dict:
    with open(str(path) + ".bayes.json") as fh:
        payload = json.load(fh)
    payload["labels"] = [
        tuple(y) if isinstance(y, list) else y for y in payload["labels"]
    ]
    return payload


# ---------------------------------------------------------------------------
# synthetic generators


def synth_blobs(n: int, k: int = 3, separation: float = 3.0, d: int = 2, seed: int = 0) -> tuple[Dataset, list, float]:
    """Gaussian blobs with means on a circle; Bayes = nearest mean."""
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(k) / k
    means = separation * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if d > 2:
        means = np.hstack([means, np.zeros((k, d - 2))])
    labs = rng.integers(k, size=n)
    xs = means[labs] + rng.normal(size=(n, d))
    ys = [int(c) + 1 for c in labs]
    dists = ((xs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    bayes = [int(c) + 1 for c in dists.argmin(axis=1)]
    # Monte-Carlo Bayes risk of the mixture (equal priors, unit covariance)
    mc = np.random.default_rng(seed + 1)
    labs_mc = mc.integers(k, size=200_000)
    x_mc = means[labs_mc] + mc.normal(size=(200_000, d))
    d_mc = ((x_mc[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    risk = float(np.mean(d_mc.argmin(axis=1) != labs_mc))
    return Dataset(xs, ys, "multiclass", {"k": k}), bayes, risk


def synth_flatnoise(n: int, probs=(0.4, 0.35, 0.25), d: int = 2, seed: int = 0) -> tuple[Dataset, list, float]:
    """Labels drawn from one fixed distribution everywhere; Bayes = argmax."""
    probs = np.asarray(probs, dtype=float)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, d))
    ys = [int(c) + 1 for c in rng.choice(len(probs), size=n, p=probs)]
    b = int(np.argmax(probs)) + 1
    return (
        Dataset(xs, ys, "multiclass", {"k": len(probs)}),
        [b] * n,
        float(1.0 - probs.max()),
    )


def synth_ordinal(n: int, k: int = 5, d: int = 2, noise: float = 0.8, seed: int = 0) -> tuple[Dataset, list, float]:
    """Latent linear score quantized to 1..k; Bayes = quantized clean score."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, d))
    w = np.ones(d) / math.sqrt(d)
    z = xs @ w  # standard normal scores
    def quantize(t):
        scaled = (t + 2.5) / 5.0 * (k - 1) + 1
        return np.clip(np.rint(scaled), 1, k).astype(int)
    ys = [int(c) for c in quantize(z + noise * rng.normal(size=n))]
    bayes = [int(c) for c in quantize(z)]
    risk = float(np.mean(np.abs(quantize(z + noise * rng.normal(size=n)) - np.array(bayes))))
    return Dataset(xs, ys, "ordinal", {"k": k}), bayes, risk


def synth_hmm(n: int, M: int = 4, R: int = 3, d: int = 2, stay: float = 0.7,
              emit_sep: float = 2.0, seed: int = 0) -> tuple[Dataset, list, float]:
    """Hidden Markov sequences; Bayes per position via forward-backward."""
    rng = np.random.default_rng(seed)
    T = np.full((R, R), (1.0 - stay) / (R - 1)) if R > 1 else np.ones((1, 1))
    if R > 1:
        np.fill_diagonal(T, stay)
    pi = np.full(R, 1.0 / R)
    means = emit_sep * np.stack(
        [np.cos(2 * np.pi * np.arange(R) / R), np.sin(2 * np.pi * np.arange(R) / R)], axis=1
    )
    if d > 2:
        means = np.hstack([means, np.zeros((R, d - 2))])
    xs, ys, bayes = [], [], []
    errs = 0
    for _ in range(n):
        states = [int(rng.choice(R, p=pi))]
        for _ in range(M - 1):
            states.append(int(rng.choice(R, p=T[states[-1]])))
        obs = means[states] + rng.normal(size=(M, d))
        # forward-backward posteriors under the true model
        like = np.exp(-0.5 * ((obs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2))
        alpha = np.zeros((M, R))
        alpha[0] = pi * like[0]
        alpha[0] /= alpha[0].sum()
        for m in range(1, M):
            alpha[m] = like[m] * (alpha[m - 1] @ T)
            alpha[m] /= alpha[m].sum()
        beta = np.ones((M, R))
        for m in range(M - 2, -1, -1):
            beta[m] = T @ (like[m + 1] * beta[m + 1])
            beta[m] /= beta[m].sum()
        post = alpha * beta
        post /= post.sum(axis=1, keepdims=True)
        pred = post.argmax(axis=1)
        errs += int(np.sum(pred != np.array(states)))
        xs.append(obs.ravel())
        ys.append(tuple(s + 1 for s in states))
        bayes.append(tuple(int(p) + 1 for p in pred))
    risk = errs / (n * M)
    return Dataset(np.array(xs), ys, "chain", {"M": M, "R": R}), bayes, risk


def synth_ranking(n: int, M: int = 4, d: int = 3, noise: float = 0.5, seed: int = 0) -> tuple[Dataset, list, float]:
    """Item scores linear in features plus noise; Bayes = clean-score order."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, d))
    W = rng.normal(size=(M, d))
    clean = xs @ W.T  # (n, M) deterministic item scores
    noisy = clean + noise * rng.normal(size=(n, M))
    def order(scores):
        # permutation y with y[i] = rank position of item i (1 = best)
        ranks = np.empty(M, dtype=int)
        ranks[np.argsort(-scores, kind="stable")] = np.arange(1, M + 1)
        return tuple(int(r) for r in ranks)
    ys = [order(s) for s in noisy]
    bayes = [order(s) for s in clean]
    sample = [order(s) for s in clean + noise * rng.normal(size=(n, M))]
    risk = float(np.mean([
        sum(a != b for a, b in zip(p, q)) / M for p, q in zip(sample, bayes)
    ]))
    return Dataset(xs, ys, "ranking", {"M": M}), bayes, risk


_GENERATORS = {
    "blobs": synth_blobs,
    "flatnoise": synth_flatnoise,
    "ordinal": synth_ordinal,
    "hmm": synth_hmm,
    "ranking": synth_ranking,
}


def make_synth(kind: str, path, seed: int = 0, **params) -> Dataset:
    """Generate a dataset file plus its Bayes sidecar; returns the dataset."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator {kind!r} (choose from {sorted(_GENERATORS)})")
    ds, bayes, risk = _GENERATORS[kind](seed=seed, **params)
    save_dataset(ds, path)
    _write_bayes_sidecar(path, bayes, risk, ds.task_kind, ds.task_params)
    return ds
