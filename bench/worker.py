"""One repetition of a benchmark workload, in a fresh interpreter.

Run by `run.py` as `python worker.py '<spec json>'` with the repository's
`src` on PYTHONPATH.  It imports charcore, prints `ready` (the parent times
set-up up to that line), runs the workload's operations in a timed region,
checks every answer outside it, and prints one JSON result line.  While
the timed region runs, `speed.SpeedProbe` samples how fast the host runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import mpmath  # noqa: F401  (imported before `ready`: part of set-up)

import charcore
import charcore.cli
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_cli(jobs: list[str], probe=None) -> tuple[list[tuple], list[float], float, float]:
    """Run each job through the CLI entry, capturing stdout and stderr.

    Times leave out what an open `probe` spent inside its handler."""
    probe = probe or speed.SpeedProbe()
    results, latencies = [], []
    cpu0 = time.process_time()
    t_first = time.perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        spent0 = probe.spent
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = charcore.cli.main(job.split())
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = "crash"
                err.write(traceback.format_exc())
        latencies.append(time.perf_counter() - t0 - (probe.spent - spent0))
        results.append((job, rc, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - t_first - probe.spent
    return results, latencies, wall, time.process_time() - cpu0 - probe.spent


def _point_call(kind: str, args):
    if kind == "chi":
        return charcore.chi(*args)
    if kind == "tcore":
        return charcore.tcore(*args)
    mu, (p, r) = args
    return charcore.reduce_partition(mu, charcore.CombineConfig(p, r)).output


def run_point(queries: list[tuple], probe=None) -> tuple[list, list[float], float, float]:
    """Run each query; times leave out what an open `probe` spent."""
    probe = probe or speed.SpeedProbe()
    answers, latencies = [], []
    cpu0 = time.process_time()
    t_first = time.perf_counter()
    for kind, args in queries:
        spent0 = probe.spent
        t0 = time.perf_counter()
        try:
            answer = _point_call(kind, args)
        except Exception:
            answer = "crash: " + traceback.format_exc(limit=1)
        latencies.append(time.perf_counter() - t0 - (probe.spent - spent0))
        answers.append(answer)
    wall = time.perf_counter() - t_first - probe.spent
    return answers, latencies, wall, time.process_time() - cpu0 - probe.spent


def cli_layer_counts(results) -> dict[str, int]:
    """Work counts read from the CLI outputs themselves."""
    counts = {
        "cli.output_bytes": 0,
        "divisibility.verify.cases": 0,
        "stats.delta.k_truncation": 0,
        "stats.delta.ell_count": 0,
    }
    for job, _rc, out, _err in results:
        counts["cli.output_bytes"] += len(out.encode())
        try:
            if job.startswith("verify"):
                rep = json.loads(out)
                counts["divisibility.verify.cases"] += rep["checked"] + rep["skipped"]
            elif job.startswith("stats delta"):
                detail = json.loads(out)["detail"]
                counts["stats.delta.k_truncation"] += detail["k_truncation"]
                counts["stats.delta.ell_count"] += detail["ell_count"]
        except (ValueError, KeyError):
            pass  # the output check reports the malformed output
    return counts


def main(spec: dict) -> dict:
    import tracing
    import workloads

    workload, seed = spec["workload"], spec["seed"]
    if workload == "point":
        queries = workloads.read_queries(spec["queries"])
    else:
        jobs = workloads.cli_jobs(workload, seed)
    tracer = tracing.Tracer() if spec["trace"] else contextlib.nullcontext()
    with tracer, speed.SpeedProbe() as probe:
        if workload == "point":
            answers, latencies, wall, cpu = run_point(queries, probe)
        else:
            results, latencies, wall, cpu = run_cli(jobs, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, failed, answers_sha256 = [], 0, None
    if workload == "point":
        # later repetitions must repeat the answers of the one checked in full
        answers_sha256 = workloads.digest(repr(answers))
        if spec.get("expect") is None:
            sys.path.insert(0, str(ROOT / "tests"))
            from oracles import mn_reference

            for (kind, args), answer in zip(queries, answers):
                problem = workloads.check_point(kind, args, answer, mn_reference)
                if problem:
                    problems.append(problem)
                    failed += 1
        elif answers_sha256 != spec["expect"]:
            problems.append("answers differ from those of the checked repetition")
            failed = len(queries)
        attempted = len(queries)
    else:
        reference = workloads.load_reference()
        for job, rc, out, err in results:
            found = workloads.check_cli(job, rc, out, reference, seed)
            if found:
                failed += 1
                problems += found + ([f"{job}: stderr: {err.strip()[-500:]}"] if err else [])
        attempted = len(jobs)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [t * 1e3 for t in latencies],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "answers_sha256": answers_sha256,
        "chunk_s": probe.chunk_s(),
    }
    if spec["trace"]:
        result["summary"] = tracer.summary()
        result["work"] = dict(tracer.work)
        if workload != "point":
            result["work"].update(cli_layer_counts(results))
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    if ROOT / "src" not in Path(charcore.__file__).resolve().parents:
        raise SystemExit(f"charcore was imported from {charcore.__file__}, not {ROOT / 'src'}")
    print("ready", flush=True)
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        print(json.dumps({"chunk_s": speed.calibrate()}))
        raise SystemExit(0)
    sys.path.insert(0, str(BENCH))
    print(json.dumps(main(spec)), flush=True)
