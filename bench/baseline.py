"""Regenerate the Baseline rows of ROADMAP.md for the three workloads.

    python3 bench/baseline.py [--seed N]

Runs each workload once with --trace 1 and the shortest run length, which
gives one untraced and one traced round, and prints one markdown row per
workload: the untraced round's wall and training time, and the traced
round's shares of training spent in certification (`trainer.dual_gap`) and
in projections.  Takes about two minutes on two cores.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("iris-bench", "hmm-chain", "calib-simplex")


def _share(part: float, whole: float) -> str:
    return f"{100 * part / whole:.0f}%" if whole else "—"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args().seed
    print("| workload | wall s | train s | certification share of training | projection share of training |")
    print("|---|---|---|---|---|")
    for name in WORKLOADS:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", "1", "--trace", "1"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if res.returncode != 0:
            print(f"error: {name} exited with {res.returncode}:\n{res.stderr}", file=sys.stderr)
            return 1
        layers = {k: v["value"] for k, v in json.loads(res.stdout.splitlines()[-1])["metrics"].items()}
        record = json.loads((ROOT / ".bench_out" / f"{name}-seed{seed}-trace1" / "result.json").read_text())
        untraced = next(r for r in record["rounds"] if not r["traced"])
        train = layers["trainer.gbcfw_train.s"]
        print(f"| {name} | {untraced['wall_s']:.1f} | {untraced['train_s']:.1f} | "
              f"{_share(layers['trainer.dual_gap.s'], train)} | {_share(layers['projections.project.s'], train)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
