"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "tests"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from oracles import mn_reference  # noqa: E402

TINY_JOBS = (
    "table 6 --format csv --threads 1",
    "verify lemma61 --n 8 --m 2 --hooks 2",
    "verify prop-pm1 --n 8 --m 2 --p 2 --r 2",
    "stats prop4 --n 60 --p 2 --r 2 --samples 5 --seed 3",
    "stats tcores --n 10 --t 3",
)


def _charcore_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "charcore" or name.startswith("charcore.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_yields_every_layer_metric():
    with tracing.Tracer() as tracer:
        results, _, _, _ = worker.run_cli(list(TINY_JOBS))
    rep = {"summary": tracer.summary(), "work": dict(tracer.work)}
    rep["chunk_s"] = run.REFERENCE_CHUNK_S
    rep["work"].update(worker.cli_layer_counts(results))
    metrics, mismatched = run.layer_metrics([rep, rep])
    assert not mismatched
    names = [name for name, _ in run.PER_LAYER if name != "trace.overhead_frac"]
    assert list(metrics) == names
    assert metrics["characters.chi_column.calls"] == 11  # p(6) columns
    assert metrics["divisibility.sequences"] > 0
    assert metrics["divisibility.verify.cases"] > 0
    assert metrics["cli.output_bytes"] == sum(len(r[2].encode()) for r in results)
    assert all(v >= 0 for v in metrics.values())


def test_self_time_is_never_negative_nor_longer_than_the_span():
    with tracing.Tracer() as tracer:
        worker.run_cli(list(TINY_JOBS))
        worker.run_point(workloads.PointGenerator(5).queries(40))
    assert len(tracer.name) > 100
    for i, own in enumerate(tracer.self_times()):
        span = tracer.end[i] - tracer.start[i]
        assert 0 <= own <= span
    summary = tracer.summary()
    for entry in summary.values():
        assert 0 <= entry["self_s"] <= entry["s"]


def test_every_wrapped_function_is_restored():
    before = _charcore_bindings()
    import charcore.characters as characters

    original = characters.from_partition
    with tracing.Tracer():
        # the name imported into characters is wrapped, not only abacus's own
        assert characters.from_partition is not original
        worker.run_cli(["table 4 --format csv --threads 1"])
    after = _charcore_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_speed_probe_samples_and_is_left_out_of_the_times():
    queries = workloads.PointGenerator(3).queries(400)
    with speed.SpeedProbe() as probe:
        _, latencies, wall, _ = worker.run_point(queries, probe)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples and probe.spent >= sum(probe.samples)
    assert 0 < sum(latencies) <= wall


def test_corrupted_reference_digest_counts_as_failed(tmp_path, monkeypatch):
    job = "table 5 --format csv --threads 1"
    results, _, _, _ = worker.run_cli([job])
    entry = workloads.reference_entry(job, results[0][1], results[0][2])
    reference = tmp_path / "reference.json"
    monkeypatch.setitem(workloads.BATCH_JOBS, "table", (job,))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", reference)
    spec = {"workload": "table", "seed": 1, "trace": False}

    reference.write_text(json.dumps({job: entry}))
    good = worker.main(spec)
    assert (good["attempted"], good["failed"]) == (1, 0)

    entry["sha256"] = "0" * 64
    reference.write_text(json.dumps({job: entry}))
    bad = worker.main(spec)
    assert (bad["attempted"], bad["failed"]) == (1, 1)
    assert "digest" in bad["problems"][0]


def test_prop4_check_ignores_the_seed_split_but_not_the_fields():
    job = "stats prop4 --n 60 --p 2 --r 2 --samples 5 --seed 3"
    (_, rc, out, _), = worker.run_cli([job])[0]
    reference = {workloads.reference_key(job): workloads.reference_entry(job, rc, out)}
    rep = json.loads(out)
    resplit = dict(rep, holds=rep["samples"] - rep["holds"], fails=rep["holds"])
    assert workloads.check_cli(job, rc, json.dumps(resplit), reference, 3) == []
    for field, value in (("threshold", "1.0"), ("holds", rep["holds"] + 1)):
        wrong = json.dumps(dict(rep, **{field: value}))
        assert workloads.check_cli(job, rc, wrong, reference, 3)


def test_verifier_with_nothing_checked_fails():
    out = json.dumps({"lemma": "x", "checked": 0, "skipped": 4, "violated": 0})
    assert workloads._check_verifier("verify x", out)


def test_table_check_catches_a_wrong_degree():
    (_, _, out, _), = worker.run_cli(["table 6 --format csv --threads 1"])[0]
    assert workloads.check_table_csv(out) == []
    lines = out.splitlines()
    lines[2] = lines[2][: lines[2].rindex(",")] + ",6"
    assert workloads.check_table_csv("\n".join(lines))


def test_point_checks_catch_wrong_answers():
    def problem(kind, args, answer):
        return workloads.check_point(kind, args, answer, mn_reference)

    assert problem("chi", ((3, 2), (2, 2, 1)), 1) is None
    assert problem("chi", ((3, 2), (2, 2, 1)), -1)
    assert problem("chi", ((3, 2), (1,) * 5), 4)
    assert problem("tcore", ((3, 1, 1), 2), (1,)) is None
    assert problem("tcore", ((3, 1, 1), 2), (3,))  # has a hook of length 2
    assert problem("tcore", ((3, 1, 1), 2), (2, 1, 1))  # wrong size
    assert problem("reduce", ((1,) * 8, (2, 2)), (4, 4)) is None
    assert problem("reduce", ((1,) * 8, (2, 2)), (2, 2, 2, 2))
    assert problem("reduce", ((1,) * 8, (2, 2)), "crash: boom")


def test_point_queries_pass_their_checks():
    queries = workloads.PointGenerator(9).queries(60)
    answers, latencies, _, _ = worker.run_point(queries)
    assert len(latencies) == 60
    for (kind, args), answer in zip(queries, answers):
        assert workloads.check_point(kind, args, answer, mn_reference) is None


def test_point_answers_that_differ_from_the_checked_ones_fail(tmp_path):
    path = tmp_path / "queries.json"
    queries = workloads.PointGenerator(2).queries(12)
    workloads.write_queries(queries, path)
    assert workloads.read_queries(path) == queries
    spec = {"workload": "point", "seed": 2, "trace": False, "queries": str(path)}
    checked = worker.main(dict(spec, expect=None))
    assert (checked["attempted"], checked["failed"]) == (12, 0)
    again = worker.main(dict(spec, expect=checked["answers_sha256"]))
    assert (again["attempted"], again["failed"]) == (12, 0)
    wrong = worker.main(dict(spec, expect="0" * 64))
    assert (wrong["attempted"], wrong["failed"]) == (12, 12)


def test_point_generator_is_seeded_and_uniform():
    gen = workloads.PointGenerator(4)
    assert gen.queries(30) == workloads.PointGenerator(4).queries(30)
    assert gen.queries(30) != workloads.PointGenerator(5).queries(30)
    rng = random.Random(0)
    counts = Counter(gen.uniform(6, rng) for _ in range(5500))
    assert len(counts) == 11 and min(counts.values()) > 400
    for kind, args in gen.queries(200):
        if kind == "chi" and args[1] != (1,) * len(args[1]):
            assert len(args[1]) <= workloads.CHI_MAX_PARTS


def test_run_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_states_why(name):
    assert workloads.WHY[name]
