"""spernerlib benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is taken from ./src).
Workloads and metrics are listed in BENCHMARK.json; bench/workloads.py says
what each workload's queries are and why.

A run runs passes of the workload until S seconds of passes have gone by.
Before each pass and after the last one it times SETUP_ROUND fresh
interpreters up to the end of `import spernerlib`; `setup_s` is the median
of all of them, so that set-up is sampled over the whole run rather than in
one burst. Each pass is a fresh process (bench/passrun.py)
in which one client sends the seeded queries in a closed loop, so the
library's caches start cold as in a user session; only one pass runs at a
time. With --trace 0 the last line of output carries the end-to-end
metrics, medians over passes. With --trace 1 passes alternate between
untraced and traced; the traced ones give the per-layer metrics (medians of
times; work counts, which must repeat exactly), and the difference between
the two kinds of pass is the tracing overhead.

The end-to-end times (wall_s, query_p50_ms, query_tail_ms, setup_s) are
scaled to a reference host by a fixed task that runs no spernerlib code
(bench/calibration.py), since the speed of a shared host drifts within
seconds: each query and each set-up interpreter by the reference tasks
timed just before and after it. wall_s is the sum of a pass's query times.
The times as taken are printed beside the scaled ones and kept in the
report, as are the per-layer times of a traced run, which are not scaled.

Every answer is checked: against the answers recorded in bench/golden for
the seeds listed there, and against invariants for any seed. A query that
raises, exits non-zero or answers wrongly counts as failed.

The full report (stamp of where it was measured, per-pass timings, spans)
goes to bench/out/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUND = 4
PASS_TIMEOUT_S = 170
TAIL_BEYOND = 10

# Fixed queries that reproduce the ROADMAP baseline rows.
BASELINE_ROWS = {
    "cli-session": ("sperner sp w 10",),
    "bignum-adjoint": tuple(workloads.key(("gmin_power",) + row)
                            for row in workloads.TABLE_GMIN),
    "small-exact": ("witness w 16", "sp_exhaustive v 6"),
}


def die(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def stamp(seed: int) -> dict:
    """Where and on what this run was measured."""
    digest = hashlib.sha256()  # of the library and benchmark sources
    for folder in (os.path.join(SRC, "spernerlib"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed,
            "loadavg_at_start": list(os.getloadavg()),
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def check_import():
    """Import the library once, untimed, from ./src. This also writes the
    bytecode caches, as any earlier use of the library would have."""
    env = dict(os.environ, PYTHONPATH=SRC)
    check = "import spernerlib, os; print(os.path.dirname(spernerlib.__file__))"
    proc = subprocess.run([sys.executable, "-c", check], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    where = proc.stdout.strip()
    if proc.returncode != 0 or os.path.realpath(where) != \
            os.path.realpath(os.path.join(SRC, "spernerlib")):
        die(f"cannot import spernerlib from {SRC}: {proc.stderr.strip()}")


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds for SETUP_ROUND fresh interpreters to finish `import
    spernerlib`, as taken and scaled to the reference host. Each interpreter
    reports on stdout once the import is done; the clock stops there, before
    interpreter shutdown. The reference task for starts, a fresh interpreter
    importing numpy, is timed before each one and after the last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples, rounds = [], []
    for _ in range(SETUP_ROUND):
        rounds.append(calibration.start_s(env, ROOT))
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c",
                               "import spernerlib; print(flush=True)"],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE) as child:
            child.stdout.readline()
            samples.append(time.perf_counter() - t0)
        if child.returncode != 0:
            die("a set-up interpreter failed to import spernerlib", 1)
    rounds.append(calibration.start_s(env, ROOT))
    return samples, calibration.scale(samples, rounds,
                                      calibration.START_REFERENCE_S)


def run_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    out = os.path.join(OUT, f".pass-{workload}-{seed}-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", out]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"pass {index} exited with {proc.returncode}:\n{proc.stderr}", 1)
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    result["traced"] = traced
    return result


def _previous_counts(path: str, source_sha256: str) -> dict | None:
    """Work counts of the last traced run of the same seed on the same
    library sources, if its report is still there."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    if report["stamp"]["source_sha256"] != source_sha256:
        return None
    return {name: report["metrics"][name] for name in tracing.WORK_COUNTS}


def end_to_end(passes: list[list[float]], setup: list[float],
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics from the query seconds of a run's untraced
    passes and its set-up seconds."""
    # each query's latency is its median over the passes (same seed, same
    # queries); the percentiles are taken over the queries of one pass
    latencies = sorted(statistics.median(q) for q in zip(*passes))
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "query_p50_ms": 1000 * statistics.median(latencies),
        # the highest percentile with TAIL_BEYOND samples beyond it
        "query_tail_ms": 1000 * latencies[-TAIL_BEYOND - 1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "spernerlib", "__init__.py")):
        die(f"no library sources at {SRC}; run from a spernerlib checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    os.makedirs(OUT, exist_ok=True)

    where = stamp(args.seed)
    check_import()
    setup: list[float] = []
    setup_scaled: list[float] = []
    results: list[dict] = []
    measured = 0.0  # seconds spent in passes
    while True:
        samples, samples_scaled = measure_setup()
        setup += samples
        setup_scaled += samples_scaled
        traced = bool(args.trace) and len(results) % 2 == 1
        start = time.perf_counter()
        results.append(run_pass(args.workload, args.seed, traced, len(results)))
        measured += time.perf_counter() - start
        plain = [r for r in results if not r["traced"]]
        traced_passes = [r for r in results if r["traced"]]
        enough = not args.trace or len(traced_passes) >= 2
        if enough and measured >= args.seconds:
            break
    samples, samples_scaled = measure_setup()
    setup += samples
    setup_scaled += samples_scaled

    attempted = sum(len(r["failures"]) for r in results)
    failures = [(r["keys"][i], f) for r in results
                for i, f in enumerate(r["failures"]) if f is not None]
    peak_rss_mb = max(r["peak_rss_mb"] for r in plain)
    e2e = end_to_end([r["latencies_s"] for r in plain], setup, peak_rss_mb)
    scaled = end_to_end([calibration.scale(r["latencies_s"], r["calibration_s"],
                                           r["reference_s"]) for r in plain],
                        setup_scaled, peak_rss_mb)
    lat_n = len(plain[0]["latencies_s"])
    tail_pct = 100.0 * (lat_n - TAIL_BEYOND) / lat_n
    notes = {
        "wall_s": f"median of {len(plain)} passes",
        "query_p50_ms": f"median of {lat_n} queries, each the median of "
                        f"{len(plain)} passes",
        "query_tail_ms": f"p{tail_pct:.1f} of {lat_n} queries ({TAIL_BEYOND} "
                         f"beyond it), each the median of {len(plain)} passes",
        "setup_s": f"median of {len(setup)} interpreters",
        "peak_rss_mb": f"max over {len(plain)} passes",
    }
    report_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json")
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "stamp": where,
              "setup_samples_s": setup, "setup_scaled_s": setup_scaled,
              "passes": results,
              "excluded": workloads.EXCLUDED}
    repeat_ok = True
    if args.trace:
        layers = [tracing.pass_layers(r) for r in traced_passes]
        traced_wall = statistics.median(sum(r["latencies_s"])
                                        for r in traced_passes)
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in tracing.WORK_COUNTS:
                repeat_ok &= len(set(values)) == 1
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        previous = _previous_counts(report_path, where["source_sha256"])
        if previous is not None:
            repeat_ok &= all(previous[name] == metrics[name]
                             for name in tracing.WORK_COUNTS)
        wall = e2e["wall_s"]
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.unattributed_s"] = traced_wall - metrics.pop("attributed_s")
        wanted = spec["per_layer"]
        baseline = {row: statistics.median(
            r["latencies_s"][r["keys"].index(row)] for r in plain)
            for row in BASELINE_ROWS[args.workload]}
        if args.workload == "bignum-adjoint":
            baseline["table gmin (the 12 entries)"] = sum(baseline.values())
        report["baseline_rows_s"] = baseline
        report["counts_repeat"] = repeat_ok
    else:
        metrics = scaled
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        die("metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}", 1)
    report["end_to_end"] = scaled
    report["end_to_end_unscaled"] = e2e
    report["metrics"] = metrics

    print(f"bench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} passes, {attempted} queries")
    print("stamp " + json.dumps(where))
    print(f"  times scaled to a host on which a fresh interpreter imports "
          f"numpy in {calibration.START_REFERENCE_S} s and a round of "
          f"in-process work takes {calibration.ROUND_REFERENCE_S} s; as "
          f"taken in brackets")
    for m in spec["end_to_end"]:
        name = m["name"]
        raw = f"[{e2e[name]:.6f}]"
        print(f"  {name:<16} {scaled[name]:>14.6f} {m['unit']:<6} {raw:<16} "
              f"{notes[name]}")
    print(f"  {'failed_frac':<16} {len(failures) / attempted:>14.6f} {'':<6} "
          f"{len(failures)} of {attempted} queries")
    for query, why in failures[:20]:
        print(f"  FAILED {query}: {why}")
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<52} {metrics[m['name']]:>14.6f} {m['unit']}")
        print(f"  untraced wall_s {wall:.6f} = attributed "
              f"{traced_wall - metrics['trace.unattributed_s']:.6f} + "
              f"unattributed {metrics['trace.unattributed_s']:.6f} - "
              f"overhead {metrics['trace.overhead_s']:.6f}")
        print(f"  work counts repeat across traced passes"
              f"{' and the last run of this code' if previous else ''}: "
              f"{repeat_ok}")
        for row, secs in baseline.items():
            print(f"  baseline row {row!r}: {secs:.6f} s")
    for what, why in workloads.EXCLUDED:
        print(f"  excluded {what}: {why}")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": not failures and repeat_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
