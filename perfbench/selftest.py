"""Self-test of the benchmark at tiny sizes; exits 1 on the first failure.

    python3 perfbench/selftest.py

For every workload it checks that a plain run and a traced run answer
correctly and print exactly the metrics BENCHMARK.json names, and that two
traced runs with the same seed print byte-identical `counter` lines even
under different hash seeds. It also checks that the benchmark refuses to
run, without printing a result, where the csst sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def child(workload: str, trace: int, hash_seed: int) -> tuple[dict, list[str]]:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, __file__, "--child", workload, str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    counters = [line for line in out if line.startswith("counter ")]
    return json.loads(out[-1]), counters


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        workload = w["name"]
        plain, _ = child(workload, 0, 1)
        first, counters_a = child(workload, 1, 1)
        second, counters_b = child(workload, 1, 2)
        for trace, result in ((0, plain), (1, first)):
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['failed']} failed ops")
            expect(set(result["metrics"]) == names[trace],
                   f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{workload}: an end-to-end metric is not positive")
        expect(counters_a and counters_a == counters_b,
               f"{workload}: counters differ between same-seed runs")
        print(f"ok {workload}: {len(counters_a)} counter lines stable")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*spec["command"], "--workload", "dyn-read", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "the benchmark ran without the csst sources")
    print("ok: refuses to run without the csst sources")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, str(HERE))
        import run

        run.bench(sys.argv[2], SEED, 0.3, int(sys.argv[3]), tiny=True)
    else:
        main()
