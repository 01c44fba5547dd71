"""Quick self-test: one short run of each mode emits every metric that
BENCHMARK.json names, with its unit, and a correct result.

    python3 perfbench/selftest.py

Runs the witness workload for one round untraced and one traced (about
15 s on a 2-core machine). Exits 0 when both results are well formed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_errors(spec, trace):
    cmd = spec["command"] + ["--workload", "witness", "--seed", "0", "--seconds", "1"]
    cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace {trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        errors.append(f"trace {trace}: correct/attempted/failed {result}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"trace {trace}: metrics {got}, want {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or (not trace and m["value"] <= 0):
            errors.append(f"trace {trace}: {name} = {m['value']!r}")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = result_errors(spec, 0) + result_errors(spec, 1)
    for line in errors:
        print(line, file=sys.stderr)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
