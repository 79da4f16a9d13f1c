"""Fast self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Runs every workload untraced and traced with ``--tiny`` inputs and
asserts that each metric ``BENCHMARK.json`` names is emitted with its
unit, that every reply matched the oracle (``failed == 0``), that the
traced run's layer times account for its latency within the stated
tolerance, and that ``plan-churn`` overflows the plan cache's L1
(``plan.evictions > 0``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import WORKLOADS  # noqa: E402
from perfbench.run import UNATTRIBUTED_TOLERANCE  # noqa: E402

#: plan-churn needs enough requests to touch more than 256 keys.
SECONDS = {"plan-churn": 10}


def run(workload: str, trace: int) -> dict:
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        str(SECONDS.get(workload, 4)),
        "--trace",
        str(trace),
        "--tiny",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            metrics = result["metrics"]
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} -> {got}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
            if trace:
                e2e = metrics["trace.e2e_ms"]["value"]
                off = metrics["trace.unattributed_ms"]["value"]
                if abs(off) > UNATTRIBUTED_TOLERANCE * e2e:
                    problems.append(f"{workload}: unattributed {off} of {e2e} ms")
                if workload == "plan-churn" and not metrics["plan.evictions"]["value"]:
                    problems.append("plan-churn did not overflow the L1")
            print(f"{workload} trace={trace}: ok", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
