"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload {iris-bench,hmm-chain,calib-simplex}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from the checkout's
`src/`; BLAS and OpenMP pools are fixed at one thread.  A run repeats whole
rounds of the workload until S seconds have passed.  It reports the median
over rounds of each metric.  Every time is taken with hostspeed.clock(),
which runs at a fixed reference speed of the host, sampled while the
program runs.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones; metric names and units are those of BENCHMARK.json.
Run files (environment, metrics, spans) go to
.bench_out/<workload>-seed<N>-trace<T>/.  Exit codes: 0 a result was
printed, 1 no round finished with correct outputs, 2 the checkout cannot
be benchmarked (no package under src/, or a per-layer metric names a
function the package does not have).
"""

import os
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh child processes


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import maxminsp from the checkout's src/, or exit with code 2."""
    if not (SRC / "maxminsp" / "__init__.py").is_file():
        _log(f"error: no maxminsp package under {SRC}; run from a full checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import maxminsp
    if Path(maxminsp.__file__).resolve().parent != (SRC / "maxminsp").resolve():
        _log(f"error: maxminsp was imported from {maxminsp.__file__}, not from {SRC}")
        sys.exit(2)
    import workloads  # imports the rest of the package
    return maxminsp, workloads


def _environment(maxminsp) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() if res.returncode == 0 else None
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "maxminsp": maxminsp.__version__,
        "maxminsp_imported_from": str(Path(maxminsp.__file__).resolve().parent),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _setup_probe(args, index: int) -> float:
    """Seconds a fresh process needs to import the package and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe", str(index)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.strip().splitlines()[-1])


def _layer_values(agg: dict, names: list) -> dict:
    """Per-layer metrics `<span>.<field>` from a span aggregate.

    Every span's function was found and traced (tracing.targets fails
    otherwise), so a span with no record was not called and reads 0.
    """
    out = {}
    for metric in names:
        span, field = metric.rsplit(".", 1)
        a = agg.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
        if field == "us_per_call":
            out[metric] = 1e6 * a["s"] / a["calls"] if a["calls"] else 0.0
        else:
            out[metric] = a[field]
    return out


def _write_spans(path: Path, spans: list) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,rows\n")
        for i, (name, t0, t1, parent, rows) in enumerate(spans):
            fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{rows}\n")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(BENCH))
    import hostspeed

    # set-up: importing the package (numpy is imported already) and making the inputs
    with hostspeed.sampling():
        t_setup = hostspeed.clock()
        maxminsp, workloads = _import_program()
        import tracing
        import selftest
        if args.workload not in workloads.WORKLOADS:
            _log(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
            return 2
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer_names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace_overhead_s"]
        try:
            spans = {tracing.span_of(name) for name in layer_names}
            tracing.targets(spans)
        except LookupError as exc:
            _log(f"error: {exc}")
            return 2
        workload = workloads.WORKLOADS[args.workload](root=ROOT)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.setup_probe is not None:
            tag += f"-probe{args.setup_probe}"
        workdir = ROOT / ".bench_out" / tag
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        setup_tracer = tracing.Tracer()
        with setup_tracer.installed(spans) if args.trace else contextlib.nullcontext():
            inputs = workload.setup(args.seed, workdir)
        setup_s = hostspeed.clock() - t_setup
    if args.setup_probe is not None:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]

    env = _environment(maxminsp)
    (workdir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    _log("env " + json.dumps(env, sort_keys=True))
    _log(f"{selftest.run_selftests()} checker self-tests passed")
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(_setup_probe(args, len(setup_samples)))

    failed = 0
    correct = True
    attempts = {False: 0, True: 0}  # traced? -> rounds started
    rounds = {False: [], True: []}  # traced? -> [(metrics, span aggregate, host factor)]
    last_spans = []
    t_run = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempts[False] > attempts[True]
        if (time.perf_counter() - t_run >= args.seconds and attempts[False]
                and (attempts[True] or not args.trace)):
            break
        attempts[traced] += 1
        attempted = attempts[False] + attempts[True]
        tracer = tracing.Tracer()
        first_slice = len(hostspeed.samples)
        try:
            with hostspeed.sampling(), tracer.installed(spans) if traced else contextlib.nullcontext():
                out = workload.run_round(inputs, workdir)
        except Exception:
            failed += 1
            _log(f"round {attempted} failed:\n{traceback.format_exc()}")
            continue
        try:
            metrics = workload.check(inputs, out)
        except Exception:
            correct = False
            _log(f"round {attempted} output check failed:\n{traceback.format_exc()}")
            continue
        host_factor = hostspeed.factor(hostspeed.samples[first_slice:])
        _log(f"round {attempted} {'traced' if traced else 'untraced'}, host factor {host_factor:.4f}: "
             + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
        rounds[traced].append((metrics, tracing.aggregate(tracer.spans) if traced else None, host_factor))
        if traced:
            last_spans = tracer.spans

    if not rounds[False] or (args.trace and not rounds[True]):
        _log("error: no round finished with correct outputs")
        return 1

    def summary(key, which):
        return statistics.median(m[key] for m, _, _ in rounds[which])

    if args.trace:
        per_round = [_layer_values(agg, layer_names) for _, agg, _ in rounds[True]]
        setup_layers = _layer_values(tracing.aggregate(setup_tracer.spans), layer_names)
        values = {k: setup_layers[k] + statistics.median(r[k] for r in per_round) for k in layer_names}
        values["trace_overhead_s"] = summary("wall_s", True) - summary("wall_s", False)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        _write_spans(workdir / "spans-setup.csv", setup_tracer.spans)
        _write_spans(workdir / "spans-round.csv", last_spans)
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        for key in rounds[False][0][0]:
            values[key] = summary(key, False)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(
        {**result, "setup_samples_s": setup_samples, "env": env,
         "rounds": [{"traced": t, "host_factor": f, **m} for t in (False, True) for m, _, f in rounds[t]]},
        indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
