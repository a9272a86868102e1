"""Benchmark command line: synthetic data, training runs, split protocol.

Subcommands:
  synth  generate a synthetic dataset (with Bayes sidecar)
  train  one training run on a single seeded 60/20/20 split
  bench  the full protocol: 14 seeded splits, lambda grid selected on
         validation, test losses reported as a table
  calib  calibration constants on tiny enumerable tasks

Machine-readable results go to <out>/results.jsonl, per-pass diagnostics
(wall-clock times included) to diagnostics.jsonl and, for train and bench,
versions, config and data sha256 to manifest.json.
Exit codes: 0 success, 2 parse/config error, 3 training failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from importlib import metadata
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .calibration import ranking_d_bound, zeta_bruteforce
from .datasets import Dataset, DatasetFormatError, load_dataset, make_synth
from .kernels import KernelSpec, median_heuristic
from .tasks import make_task
from .trainer import TrainConfig, gbcfw_train, m3n_train, predict

EXIT_PARSE = 2
EXIT_TRAIN = 3

DEFAULT_LAMBDA_GRID = [2.0 ** -j for j in range(1, 11)]
POSITIVE = click.IntRange(min=1)
SEED = click.IntRange(min=0)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _file_hash(path) -> tuple[int, str]:
    """The data file's sha256 as the splits' data word (its first 8 bytes) and in hex."""
    digest = hashlib.sha256(Path(path).read_bytes())
    return int.from_bytes(digest.digest()[:8], "big"), digest.hexdigest()


def _split_indices(n: int, seed: int, data_hash: int):
    """Deterministic 60/20/20 split from (seed, dataset hash)."""
    rng = np.random.default_rng([seed, data_hash])
    perm = rng.permutation(n)
    n_train = int(round(0.6 * n))
    n_val = int(round(0.2 * n))
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


def _standardize(train_xs: np.ndarray):
    mean = train_xs.mean(axis=0)
    std = train_xs.std(axis=0)
    std[std < 1e-12] = 1.0
    return lambda xs: (xs - mean) / std


def _mean_loss(task, preds, truths) -> float:
    return float(np.mean([task.loss(p, y) for p, y in zip(preds, truths)]))


def _parse_gamma(kernel_gamma: str) -> float | None:
    """The fixed --kernel-gamma value, or None for the median heuristic."""
    if kernel_gamma == "median":
        return None
    try:
        g = float(kernel_gamma)
    except ValueError:
        raise ValueError(f"--kernel-gamma must be 'median' or a float, got {kernel_gamma!r}")
    if not 0 < g < math.inf:  # also rejects nan
        raise ValueError("--kernel-gamma must be positive and finite")
    return g


def _train_split(ds: Dataset, task, name: str, data_hash: int, split_seed: int, grid,
                 method: str, passes: int, spmp_iters: int, warm_start: bool,
                 gamma: float | None) -> tuple[list[dict], list[dict]]:
    """Train every grid value on one seeded split.

    Returns one record per lambda, with its validation and test loss, and
    the per-pass diagnostics rows of all of them.  gamma None picks the
    median heuristic on the split's standardized training rows.
    """
    idx_train, idx_val, idx_test = _split_indices(len(ds), split_seed, data_hash)
    xs = _standardize(ds.xs[idx_train])(ds.xs)
    if gamma is None:
        gamma = median_heuristic(xs[idx_train])
    train_fn = gbcfw_train if method == "m4n" else m3n_train
    data = (xs[idx_train], [ds.ys[i] for i in idx_train])
    records, diagnostics = [], []
    for lam in grid:
        cfg = TrainConfig(
            passes=passes, lam=lam, spmp_iters=spmp_iters, warm_start=warm_start,
            seed=split_seed, kernel=KernelSpec("gaussian", gamma),
        )
        model, report = train_fn(data, task, cfg)
        val_loss, test_loss = (
            _mean_loss(task, predict(model, xs[idx]), [ds.ys[i] for i in idx]) if len(idx) else math.nan
            for idx in (idx_val, idx_test)
        )
        records.append({
            "dataset": name, "method": method, "split_seed": split_seed,
            "lambda": lam, "val_loss": val_loss, "test_loss": test_loss,
            "passes": passes, "K": spmp_iters, "warm_start": warm_start,
        })
        for r in report.records:
            diagnostics.append({
                "dataset": name, "method": method, "split_seed": split_seed,
                "lambda": lam, **{k: v for k, v in r.items() if k not in ("wall_s", "certify_s")},
                "wall_ms": r["wall_s"] * 1000.0, "certify_ms": r["certify_s"] * 1000.0,
            })
    return records, diagnostics


def _finite(value):
    """The value with each non-finite float, also inside dicts, as None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _json(rec: dict) -> str:
    """One strict JSON line: an empty split's loss or an unreached eps is null."""
    return json.dumps(_finite(rec), sort_keys=True, allow_nan=False)


def _emit(out_dir: Path, results: list[dict], diagnostics: list[dict]):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, records in (("results.jsonl", results), ("diagnostics.jsonl", diagnostics)):
        (out_dir / name).write_text("".join(_json(rec) + "\n" for rec in records))


def _write_manifest(out_dir: Path, sha256: str, grid, gamma):
    """manifest.json: versions, the command's options, grid and gamma resolved, and the data's sha256."""
    ctx = click.get_current_context()
    config = {k: v for k, v in ctx.params.items() if k not in ("out", "lam", "lambda_grid", "kernel_gamma")}
    config.update(command=ctx.info_name, lambda_grid=grid, kernel_gamma="median" if gamma is None else gamma)
    versions = {name: metadata.version(name) for name in ("numpy", "scipy", "click")}
    versions.update(maxminsp=__version__, python=sys.version.split()[0])
    record = {"versions": versions, "config": config, "data_sha256": sha256}
    (out_dir / "manifest.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _load(data_path: str, task_kind: str) -> Dataset:
    try:
        return load_dataset(data_path, task_kind)
    except (DatasetFormatError, FileNotFoundError, ValueError) as exc:
        _fail(EXIT_PARSE, str(exc))


@click.group()
def main():
    """Structured prediction benchmark driver."""


def _finite_float(token: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float, if finite."""
    if not math.isfinite(value := float(token)):
        raise ValueError(token)
    return value


@main.command()
@click.option("--kind", required=True,
              type=click.Choice(["blobs", "flatnoise", "ordinal", "hmm", "ranking"]))
@click.option("--n", default=200, show_default=True, type=POSITIVE)
@click.option("--seed", default=0, show_default=True, type=SEED)
@click.option("--out", required=True, type=click.Path())
@click.option("--param", "params", multiple=True,
              help="generator parameter as name=value (e.g. k=3, separation=2.5)")
def synth(kind, n, seed, out, params):
    """Generate a synthetic dataset and its Bayes sidecar."""
    kwargs = {}
    for p in params:
        if "=" not in p:
            _fail(EXIT_PARSE, f"bad --param {p!r}, expected name=value")
        name, value = p.split("=", 1)
        try:
            kwargs[name] = json.loads(value, parse_constant=_finite_float, parse_float=_finite_float)
        except json.JSONDecodeError:
            _fail(EXIT_PARSE, f"bad value in --param {p!r}")
        except ValueError:
            _fail(EXIT_PARSE, f"--param {name}= must be finite, got {value}")
    try:
        ds = make_synth(kind, out, seed=seed, n=n, **kwargs)
    except (TypeError, ValueError) as exc:
        _fail(EXIT_PARSE, str(exc))
    click.echo(f"wrote {len(ds)} examples ({ds.task_kind} {ds.task_params}) to {out}")


def _common_train_options(fn):
    fn = click.option("--data", required=True, type=click.Path())(fn)
    fn = click.option("--task", "task_kind", required=True,
                      type=click.Choice(["multiclass", "ordinal", "chain", "ranking"]))(fn)
    fn = click.option("--method", default="m4n", show_default=True,
                      type=click.Choice(["m4n", "m3n"]))(fn)
    fn = click.option("--lambda", "lam", default=None, type=float)(fn)
    fn = click.option("--lambda-grid", default=None,
                      help="comma-separated values; default 2^-1..2^-10")(fn)
    fn = click.option("--passes", default=10, show_default=True, type=POSITIVE)(fn)
    fn = click.option("--spmp-iters", default=20, show_default=True, type=POSITIVE)(fn)
    fn = click.option("--warm-start", default="on", show_default=True,
                      type=click.Choice(["on", "off"]))(fn)
    fn = click.option("--kernel-gamma", default="median", show_default=True)(fn)
    fn = click.option("--seed", default=0, show_default=True, type=SEED)(fn)
    fn = click.option("--out", default="out", show_default=True, type=click.Path())(fn)
    return fn


def _parse_grid(lam, lambda_grid):
    if lam is None and lambda_grid is None:
        return list(DEFAULT_LAMBDA_GRID)
    if lam is not None and lambda_grid is not None:
        raise ValueError("give --lambda or --lambda-grid, not both")
    try:
        grid = [lam] if lam is not None else [float(v) for v in lambda_grid.split(",")]
    except ValueError:
        raise ValueError(f"bad --lambda-grid {lambda_grid!r}")
    if not all(0 < g < math.inf for g in grid):  # also rejects nan
        raise ValueError("lambda values must be positive and finite")
    return grid


def _parse_config(data, task_kind, lam, lambda_grid, kernel_gamma):
    """Dataset, task, lambda grid and fixed gamma; exits 2 on bad input."""
    ds = _load(data, task_kind)
    try:
        task = make_task(ds.task_kind, **ds.task_params)
        return ds, task, _parse_grid(lam, lambda_grid), _parse_gamma(kernel_gamma)
    except ValueError as exc:
        _fail(EXIT_PARSE, str(exc))


@main.command()
@_common_train_options
def train(data, task_kind, method, lam, lambda_grid, passes, spmp_iters,
          warm_start, kernel_gamma, seed, out):
    """One training run on a single seeded 60/20/20 split."""
    ds, task, grid, gamma = _parse_config(data, task_kind, lam, lambda_grid, kernel_gamma)
    data_hash, sha256 = _file_hash(data)
    try:
        results, diagnostics = _train_split(
            ds, task, Path(data).name, data_hash, seed, grid, method,
            passes, spmp_iters, warm_start == "on", gamma)
    except (RuntimeError, ValueError) as exc:
        _fail(EXIT_TRAIN, str(exc))
    _emit(Path(out), results, diagnostics)
    _write_manifest(Path(out), sha256, grid, gamma)
    best = min(results, key=lambda r: r["val_loss"])
    click.echo(_table(results, ["dataset", "method", "lambda", "val_loss", "test_loss"]))
    click.echo(f"selected lambda={best['lambda']} test_loss={best['test_loss']:.4f}")


@main.command()
@_common_train_options
@click.option("--splits", default=14, show_default=True, type=POSITIVE)
def bench(data, task_kind, method, lam, lambda_grid, passes, spmp_iters,
          warm_start, kernel_gamma, seed, out, splits):
    """Full protocol: seeded splits, lambda selected on validation."""
    ds, task, grid, gamma = _parse_config(data, task_kind, lam, lambda_grid, kernel_gamma)
    data_hash, sha256 = _file_hash(data)
    results, diagnostics = [], []
    try:
        for split_seed in range(seed, seed + splits):
            records, rows = _train_split(
                ds, task, Path(data).name, data_hash, split_seed, grid, method,
                passes, spmp_iters, warm_start == "on", gamma)
            results.append(min(records, key=lambda r: r["val_loss"]))
            diagnostics += rows
    except (RuntimeError, ValueError) as exc:
        _fail(EXIT_TRAIN, str(exc))
    _emit(Path(out), results, diagnostics)
    _write_manifest(Path(out), sha256, grid, gamma)
    losses = [r["test_loss"] for r in results]
    mean, std = float(np.mean(losses)), float(np.std(losses))
    table = _table(results, ["dataset", "method", "split_seed", "lambda", "val_loss", "test_loss"])
    summary = f"mean test loss over {splits} splits: {mean:.4f} +/- {std:.4f}"
    out_dir = Path(out)
    (out_dir / "table.txt").write_text(table + "\n" + summary + "\n")
    click.echo(table)
    click.echo(summary)


# the size options each calib task reads, as make_task's keywords; all but
# ranking, which reports constants only, also read the search's
_CALIB_SIZES = {"multiclass": {"k": "k"}, "ordinal": {"k": "k"},
                "chain": {"chain_m": "M", "chain_r": "R"}, "ranking": {"rank_m": "M"}}


@main.command()
@click.option("--task", "task_kind", required=True,
              type=click.Choice(["multiclass", "ordinal", "chain", "ranking"]))
@click.option("--k", default=3, show_default=True)
@click.option("--chain-m", default=1, show_default=True)
@click.option("--chain-r", default=2, show_default=True)
@click.option("--rank-m", default=3, show_default=True)
@click.option("--budget", default=20000, show_default=True, type=POSITIVE,
              help="search size: 1.5 x budget score rows, each solved for 1000 oracle rounds")
@click.option("--seed", default=0, show_default=True, type=SEED)
@click.option("--out", default="out", show_default=True, type=click.Path())
def calib(task_kind, out, **options):
    """Calibration constants and zeta estimates on a tiny task."""
    sizes = _CALIB_SIZES[task_kind]
    reads = set(sizes) if task_kind == "ranking" else {*sizes, "budget", "seed"}
    ctx = click.get_current_context()
    unread = [p.opts[0] for p in ctx.command.params if p.name in options and p.name not in reads
              and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE]
    if unread:
        _fail(EXIT_PARSE, f"--task {task_kind} takes no {', '.join(unread)}")
    try:
        task = make_task(task_kind, **{key: options[name] for name, key in sizes.items()})
        rec = {"task": task_kind, "constant_c": task.constant_c}
        if task_kind == "ranking":
            rec["constant_d_bound"] = ranking_d_bound(task.M)
        else:
            est = zeta_bruteforce(task, [0.1, 0.3, 0.5], search_budget=options["budget"], seed=options["seed"])
            rec["zeta_lower"] = {str(e): v for e, v in est.zeta_lower.items()}
            rec["search_gap_mean"], rec["search_gap_max"] = est.search_gap_mean, est.search_gap_max
    except (ValueError, AssertionError) as exc:
        _fail(EXIT_PARSE, str(exc))
    _emit(Path(out), [rec], [])
    click.echo(_json(rec))


if __name__ == "__main__":
    main()
