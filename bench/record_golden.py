"""Record the reference answers that bench/passrun.py compares against.

    python3 bench/record_golden.py

Run from the root of a checkout whose answers are the reference (the commit
that defined the benchmark). For every workload it computes the answer of
each query of seeds 0-31, refuses any answer that breaks an invariant,
and writes bench/golden/<workload>.json. CLI answers are the exact stdout
of the `sperner` command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import spernerlib as sl  # noqa: E402
import workloads  # noqa: E402
from passrun import CONSOLE_SCRIPT  # noqa: E402

SEEDS = range(32)


def answer(query: tuple) -> str:
    if query[0] != "cli":
        text = workloads.run(sl, query)
        problem = workloads.check(sl, query, text)
    else:
        proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *query[1]],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        text = proc.stdout
        problem = workloads.check_cli(sl, query[1], proc.returncode, text)
    if problem is not None:
        sys.exit(f"refusing to record {workloads.key(query)!r}: {problem}")
    return text


def main() -> int:
    for workload in workloads.WORKLOADS:
        answers: dict[str, str] = {}
        for seed in SEEDS:
            for query in workloads.build(workload, seed):
                k = workloads.key(query)
                if k not in answers:
                    answers[k] = answer(query)
        path = os.path.join(HERE, "golden", workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seeds": list(SEEDS), "answers": answers}, fh, indent=0,
                      sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(answers)} answers from seeds "
              f"{SEEDS[0]}..{SEEDS[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
