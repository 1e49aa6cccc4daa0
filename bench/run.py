"""Run the charcore benchmark: one workload, or all of them.

    python3 bench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --record bench/baseline.jsonl

Every repetition runs in a fresh interpreter (`worker.py`), so charcore's
module-level caches start cold, as they do for a CLI user.  Repetitions are
closed-loop, one client in one process, and CLI jobs pass `--threads 1`.
A run repeats the same inputs for about `--seconds` seconds (at least three
times) and reports medians over the repetitions.  Every time it reports is
scaled to the reference speed of the host: while a process runs its timed
region, `speed.SpeedProbe` times a fixed chunk of work every 20 ms, and the
process's times are multiplied by REFERENCE_CHUNK_S over the mean chunk
time.  An operation's latency
(one CLI job or one point query) is its median over the repetitions, and
the latency percentiles are taken across the run's operations.  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
traced and untraced repetitions and prints the per-layer metrics.  Every
output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed`, `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

MIN_REPS = 3  # untraced repetitions; a traced run makes at least two of each kind
SETUP_SPAWNS = 5  # set-up-only interpreters per run, besides one per repetition
RUN_LIMIT_S = 170  # a run, children included, must end well within 180 s
# About the median time of `speed.chunk` on the 2-vCPU Xeon (2.1 GHz, Python
# 3.11) where the baseline was taken.  It is only the unit of the reported times.
REFERENCE_CHUNK_S = 0.001

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)

# `<module>.<function>.{s,self_s,calls}` read the spans of that function;
# the others are work counts, except the two computed below.
PER_LAYER = (
    ("characters.chi_column.self_s", "s"),
    ("characters.chi_column.calls", "count"),
    ("characters.build_table.assembly_s", "s"),
    ("characters.write_table_csv.s", "s"),
    ("characters.chi.self_s", "s"),
    ("characters.chi.calls", "count"),
    ("abacus.from_partition.s", "s"),
    ("abacus.from_partition.calls", "count"),
    ("abacus.hook_length_mask.s", "s"),
    ("abacus.is_tcore.s", "s"),
    ("abacus.skew_per_residue.s", "s"),
    ("abacus.tcore.s", "s"),
    ("partitions.partitions_of.s", "s"),
    ("partitions.sample_uniform.self_s", "s"),
    ("partitions.sample_uniform.calls", "count"),
    ("tableaux.count_skew_syt.s", "s"),
    ("tableaux.count_skew_syt.calls", "count"),
    ("tableaux.is_border_strip.s", "s"),
    ("divisibility.enumerate_hook_sequences.s", "s"),
    ("divisibility.enumerate_hook_sequences.calls", "count"),
    ("divisibility.sequences", "count"),
    ("divisibility.epsilon.s", "s"),
    ("divisibility.epsilon.calls", "count"),
    ("divisibility.verify.cases", "count"),
    ("divisibility.reduce_partition.s", "s"),
    ("divisibility.reduce_partition.calls", "count"),
    ("divisibility.carry_levels.calls", "count"),
    ("stats.ppower_count_restricted.self_s", "s"),
    ("stats.restricted_counts_table.s", "s"),
    ("stats.generating_function_fp.s", "s"),
    ("stats.generating_function_fp.calls", "count"),
    ("stats.exceeds_threshold.s", "s"),
    ("stats.exceeds_threshold.calls", "count"),
    ("stats.lemma91_delta.self_s", "s"),
    ("stats.delta.k_truncation", "count"),
    ("stats.delta.ell_count", "count"),
    ("stats.prop4_empirical.self_s", "s"),
    ("stats.count_non_tcores.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def spawn(spec: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker; return its set-up time and its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {spec} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {spec} failed:\n{err.strip()[-3000:]}")
    return setup, json.loads(out.splitlines()[-1])


def scale(result: dict) -> float:
    """Factor that turns a process's measured times into reference-speed times."""
    return REFERENCE_CHUNK_S / result["chunk_s"]


def _spec(workload: str, seed: int, trace: bool, expect: str | None) -> dict:
    spec = {"mode": "run", "workload": workload, "seed": seed, "trace": trace, "expect": expect}
    out = BENCH / "out"
    if workload == "point":
        spec["queries"] = str(out / f"point-{seed}.json")
    if trace:
        spec["spans"] = str(out / f"spans-{workload}.tsv")
    return spec


def _quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:  # the table workload is one CLI job
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for about `seconds`; return metrics and checks."""
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    (BENCH / "out").mkdir(exist_ok=True)
    if workload == "point":  # generated once, outside every repetition
        queries = workloads.PointGenerator(seed).queries()
        workloads.write_queries(queries, _spec(workload, seed, False, None)["queries"])
    # one unmeasured start warms the file cache (and the bytecode cache, if written)
    spawn({"mode": "setup"}, deadline)
    setups = []
    for _ in range(SETUP_SPAWNS):
        setup, result = spawn({"mode": "setup"}, deadline)
        setups.append(setup * scale(result))
    plain, traced, durations = [], [], []
    expect = None  # the point answers of the first repetition, checked in full
    while True:
        elapsed = time.perf_counter() - t_start
        enough = len(traced) >= 2 if trace else len(plain) >= MIN_REPS
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        t0 = time.perf_counter()
        # every repetition runs the same inputs, so the run's speed cannot change them
        setup, result = spawn(_spec(workload, seed, False, expect), deadline)
        setups.append(setup * scale(result))
        plain.append(result)
        expect = expect or result["answers_sha256"]
        if trace:
            traced.append(spawn(_spec(workload, seed, True, expect), deadline)[1])
        durations.append(time.perf_counter() - t0)

    reps = plain + traced
    # an operation's latency is its median over the repetitions
    latencies = [
        statistics.median(ts)
        for ts in zip(*([t * scale(r) for t in r["latencies_ms"]] for r in plain))
    ]
    wall = [r["wall_s"] * scale(r) for r in plain]
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "operations": len(latencies),
        "wall_s_samples": wall,
        "measured_wall_s_samples": [r["wall_s"] for r in plain],
        "chunk_s_samples": [r["chunk_s"] for r in reps],
        "setup_samples": len(setups),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": [p for r in reps for p in r["problems"]][:20],
    }
    if not trace:
        report["metrics"] = {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(r["cpu_s"] * scale(r) for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "latency_p50_ms": _quantile(latencies, 50),
            "latency_p99_ms": _quantile(latencies, 99),
        }
    else:
        metrics, mismatched = layer_metrics(traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] * scale(r) for r in traced) / statistics.median(wall)
            - 1
        )
        report["metrics"] = metrics
        # exact counts must repeat across identical traced repetitions
        report["attempted"] += 1
        if mismatched:
            report["failed"] += 1
            report["problems"].insert(0, f"counts differ between traced runs: {mismatched}")
    return report


def layer_value(name: str, rep: dict) -> float:
    """One per-layer metric from one traced repetition."""
    if name in rep["work"]:
        return rep["work"][name]
    if name == "characters.build_table.assembly_s":
        entry = rep["summary"]["characters.build_table"]
        return entry["s"] - entry["children"].get("characters.chi_column", 0.0)
    target, field = name.rsplit(".", 1)
    if target in rep["summary"]:
        return rep["summary"][target][field]
    return 0  # a work counter that this workload never reaches


def layer_metrics(traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the timed metrics; counts from the first run, checked to repeat."""
    metrics, mismatched = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        values = [layer_value(name, rep) for rep in traced]
        if unit == "s":
            metrics[name] = statistics.median(v * scale(rep) for v, rep in zip(values, traced))
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                mismatched.append(f"{name}={values}")
    return metrics, mismatched


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": metadata.version("mpmath"),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without leaving it; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_report(report: dict) -> None:
    units = dict(END_TO_END + PER_LAYER)
    print(f"workload {report['workload']}: {workloads.WHY[report['workload']]}")
    print(
        f"  seed {report['seed']}, {report['repetitions']} untraced and "
        f"{report['traced_repetitions']} traced repetitions in fresh processes, "
        f"{report['setup_samples']} set-up samples, "
        f"{report['operations']} operations per repetition"
    )
    calibration = statistics.median(report["chunk_s_samples"])
    print(
        f"  times below are at the reference speed; the host ran "
        f"{REFERENCE_CHUNK_S / calibration:.3g} times as fast (median chunk "
        f"{calibration * 1e3:.4g} ms), median measured wall time "
        f"{statistics.median(report['measured_wall_s_samples']):.6g} s"
    )
    for name, value in report["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(
        f"  failed_frac = {report['failed'] / report['attempted']:.6g} "
        f"({report['failed']} of {report['attempted']} operations)"
    )
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each report as a JSON line to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "charcore" / "__init__.py").is_file():
        print(f"bench: no charcore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    reports = []
    try:
        for name in names:
            reports.append(measure(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        report.update(why=workloads.WHY[report["workload"]], machine=facts)
        print_report(report)
        if args.record:
            with open(args.record, "a") as f:
                f.write(json.dumps(report) + "\n")
    print(f"machine: {json.dumps(facts)}")
    units = dict(END_TO_END + PER_LAYER)
    prefix = len(reports) > 1
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
            for r in reports
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
