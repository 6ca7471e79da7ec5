"""One pass of a benchmark workload, run in a fresh process.

    python3 bench/passrun.py --workload W --seed S --trace 0|1 --out FILE

Runs the pass's queries as one client in a closed loop (each query is sent
when the previous one has answered), then checks every answer and writes
timings, answers, failures and (traced) per-layer data to FILE as JSON.
A reference task of bench/calibration.py is timed before each query and
after the last, outside the query timings, so that each query's time can be
scaled by the host's speed at that moment: a fresh interpreter importing
numpy for `sperner` commands, a round of in-process work otherwise.
The library starts cold: its caches are empty when the pass begins.
For cli-session every query is a fresh `sperner` process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# What the installed `sperner` console script runs.
CONSOLE_SCRIPT = "import sys; from spernerlib.cli import main; sys.exit(main())"
TRACED_CLI = os.path.join(HERE, "sperner_traced.py")


def _golden(workload: str) -> dict:
    path = os.path.join(HERE, "golden", workload + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _import_times(stderr: str) -> dict[str, float]:
    """Import seconds spent before `cli.main` starts, from -X importtime.

    "spernerlib" is the cumulative time of the library's top-level imports
    (the package, then `spernerlib.cli`), less any numpy import nested in
    them. "numpy" is numpy's cumulative time when it was imported before
    main, nested in the library or not. Imports made once main has started
    (lazy ones included) lie inside the `cli.main` span and are left out
    here, so that no time is counted twice.
    """
    totals = {"numpy": 0.0, "spernerlib": 0.0}
    # (indent, numpy seconds inside) of lines not yet claimed by a parent:
    # importtime prints an import after the imports nested in it, two more
    # spaces in for each level, and a top-level import one space in.
    pending: list[tuple[int, float]] = []
    for line in stderr.splitlines():
        if line == tracing.MAIN_STARTS:
            break
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, field = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():  # the header line
            continue
        name = field.strip()
        indent = len(field) - len(field.lstrip())
        seconds = int(cum) / 1e6
        numpy = 0.0
        while pending and pending[-1][0] > indent:
            numpy += pending.pop()[1]
        if name == "numpy":
            numpy = seconds
        pending.append((indent, numpy))
        if indent != 1:
            continue
        totals["numpy"] += numpy
        if name == "spernerlib" or name.startswith("spernerlib."):
            totals["spernerlib"] += seconds - numpy
    return totals


def run_cli_pass(queries, traced: bool, workdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    latencies, answers, codes, layers, rounds = [], [], [], [], []
    spans_path = os.path.join(workdir, "spans.json")
    if traced:
        env["BENCH_SPANS_OUT"] = spans_path
    for _, argv in queries:
        rounds.append(calibration.start_s(env, workdir))
        if traced:
            cmd = [sys.executable, "-X", "importtime", TRACED_CLI, *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True,
                              text=True, timeout=120)
        latencies.append(time.perf_counter() - t0)
        answers.append(proc.stdout)
        codes.append(proc.returncode)
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    layer = json.load(fh)
                os.remove(spans_path)
            except FileNotFoundError:  # the command died before writing
                layer = {"spans": [], "counts": {}, "cache": {}}
            layer["imports"] = _import_times(proc.stderr)
            layers.append(layer)
    rounds.append(calibration.start_s(env, workdir))
    return {"latencies_s": latencies, "calibration_s": rounds,
            "reference_s": calibration.START_REFERENCE_S,
            "answers": answers, "codes": codes, "layers": layers,
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}


def run_inprocess_pass(sl, queries, tracer) -> dict:
    latencies, answers, errors, rounds = [], [], [], []
    calibration.warm_up()
    for i, query in enumerate(queries):
        rounds.append(calibration.round_s())
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            answers.append(workloads.run(sl, query))
            errors.append(None)
        except Exception as exc:  # a raising query is a failed query
            answers.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
    rounds.append(calibration.round_s())
    out = {"latencies_s": latencies, "calibration_s": rounds,
           "reference_s": calibration.ROUND_REFERENCE_S, "answers": answers,
           "errors": errors, "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF)}
    if tracer is not None:
        out["layers"] = [tracer.snapshot()]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    queries = workloads.build(args.workload, args.seed)
    keys = [workloads.key(q) for q in queries]
    if args.workload == "cli-session":
        with tempfile.TemporaryDirectory(dir=os.path.dirname(args.out)) as tmp:
            result = run_cli_pass(queries, bool(args.trace), tmp)
        import spernerlib as sl  # for the checks only, after the timed loop
        failures = [workloads.check_cli(sl, q[1], code, out)
                    for q, code, out in zip(queries, result.pop("codes"),
                                            result["answers"])]
    else:
        import spernerlib as sl
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        result = run_inprocess_pass(sl, queries, tracer)
        failures = [err or workloads.check(sl, q, ans)
                    for q, ans, err in zip(queries, result["answers"],
                                           result.pop("errors"))]
    golden = _golden(args.workload)
    recorded = golden["answers"]
    for i, (k, answer) in enumerate(zip(keys, result["answers"])):
        if failures[i] is None and k in recorded and recorded[k] != answer:
            failures[i] = f"answer differs from the recorded one: {answer!r}"
        elif failures[i] is None and k not in recorded \
                and args.seed in golden["seeds"]:
            failures[i] = "no recorded answer for a shipped seed"
    result.update(keys=keys, failures=failures)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
