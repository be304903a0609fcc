"""Append one entry to the benchmark trajectory in perfbench/results.json.

    python3 perfbench/record.py --label "what changed" [--seconds S]

Runs every workload of BENCHMARK.json untraced and traced on the main seed
and on the confirmation seed, and records for each: the end-to-end and per
layer metrics, the output digest, the input totals of one pass, and the
tracing overhead (traced against untraced ops_per_s, with both bases). The
digests let a later change see whether it altered any emitted byte.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

from workloads import OP

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results.json"
MAIN_SEED, CONFIRM_SEED = 1, 2


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, info_line, result_line = done.stdout.splitlines()
    return json.loads(info_line.removeprefix("info ")), json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    results = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    entry = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'unknown cpu'}",
        "run_seconds": seconds,
        "seeds": {},
    }
    for seed in (MAIN_SEED, CONFIRM_SEED):
        per_seed = entry["seeds"][str(seed)] = {}
        for w in spec["workloads"]:
            info, plain = run(w["name"], seed, seconds, 0)
            _, traced = run(w["name"], seed, seconds, 1)
            untraced_rate = plain["metrics"]["ops_per_s"]["value"]
            traced_rate = traced["metrics"]["trace.ops_per_s"]["value"]
            per_seed[w["name"]] = {
                "correct": plain["correct"] and traced["correct"],
                "attempted": plain["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "digest": info["digest"],
                "totals": info["totals"],
                "op_p99_ms": info["raw"].pop("op_p99_ms_calibrated"),
                "raw_end_to_end": info["raw"],
                "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "tracing_overhead": {
                    "untraced_ops_per_s": untraced_rate,
                    "traced_ops_per_s": traced_rate,
                    "traced_over_untraced": traced_rate / untraced_rate,
                },
            }
            print(seed, w["name"], per_seed[w["name"]]["tracing_overhead"], flush=True)
    results["workloads"] = {
        w["name"]: {"why": w["why"], "op": OP[w["name"]]} for w in spec["workloads"]
    }
    results.setdefault("main_seed", MAIN_SEED)
    results.setdefault("confirm_seed", CONFIRM_SEED)
    results.setdefault("trajectory", []).append(entry)
    RESULTS.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
