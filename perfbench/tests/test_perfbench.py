"""Tests of the benchmark itself: its inputs, its checks and its tracing.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import CENSUS_ISO_N4, CENSUS_N5, Mismatch  # noqa: E402


# --- inputs ------------------------------------------------------------------


def test_documents_are_deterministic_per_seed():
    assert workloads.make_documents(7, 200) == workloads.make_documents(7, 200)
    assert workloads.make_documents(7, 200) != workloads.make_documents(8, 200)


def test_documents_are_idempotent_full_relations_in_both_forms():
    docs = workloads.make_documents(3, 300)
    for doc in docs:
        assert all(doc.rows) and len(doc.rows) == doc.n
        assert workloads.compose_rows(doc.rows, doc.rows) == doc.rows
    assert docs[0].text.startswith("{") and not docs[1].text.startswith("{")
    assert {doc.trivial for doc in docs} == {True, False}
    assert {doc.surjective for doc in docs} == {True, False}


def test_thread_inputs_are_deterministic_per_seed(tmp_path):
    texts = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        workdir = tmp_path / sub
        workdir.mkdir()
        w = workloads.Threads()
        w.prepare(seed, workdir)
        texts.append((w.linear.read_text(), w.gamma.read_text()))
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_workloads_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# --- checks ------------------------------------------------------------------


def test_census_verifier_accepts_the_reference():
    assert workloads.verify_census(CENSUS_N5, "csv", 0, CENSUS_N5.csv_stdout()) == 28629151
    assert CENSUS_N5.csv_stdout().splitlines()[1] == "5,28629151,33052,32211,841,32211,0"
    assert CENSUS_ISO_N4.csv_stdout().splitlines()[1] == "4,2340,80,71,9,71,0"
    doc = json.dumps(CENSUS_N5.json_doc(), indent=2)
    assert workloads.verify_census(CENSUS_N5, "json", 0, doc) == 28629151


@pytest.mark.parametrize("row", [
    "5,28629151,33052,32211,841,32211,1",
    "5,28629151,33053,32211,841,32211,0",
    "5,28629150,33052,32211,841,32211,0",
    "5,28629151,33052,32211,841,32211,0,",
])
def test_census_verifier_rejects_a_corrupted_row(row):
    header = workloads.SURVEY_CSV_HEADER
    with pytest.raises(Mismatch):
        workloads.verify_census(CENSUS_N5, "csv", 0, f"{header}\n{row}\n")


def test_census_verifier_rejects_corrupted_json_and_exit_codes():
    doc = CENSUS_N5.json_doc()
    doc["counts"]["surjective_idempotent"] -= 1
    with pytest.raises(Mismatch):
        workloads.verify_census(CENSUS_N5, "json", 0, json.dumps(doc))
    with pytest.raises(Mismatch):
        workloads.verify_census(CENSUS_N5, "json", 0, "not json")
    with pytest.raises(Mismatch):
        workloads.verify_census(CENSUS_N5, "csv", 1, CENSUS_N5.csv_stdout())


def test_document_verifier_rejects_a_wrong_gamma_pair(tmp_path):
    w = workloads.Documents()
    w.prepare(2, tmp_path)
    doc = next(d for d in w.documents if not d.trivial)
    f, report, witness, back = w.call(doc)
    assert w.verify(doc, (f, report, witness, back)) == 1
    bad = next((u, v) for u in range(doc.n) for v in range(doc.n)
               if u != v and not (doc.rows[u] >> v) & 1)
    wrong = type("W", (), {"pair": bad})()
    with pytest.raises(Mismatch):
        w.verify(doc, (f, report, wrong, back))


# --- measurement -------------------------------------------------------------


class SleepWorkload(workloads.Workload):
    tail_percentile = 50

    def __init__(self) -> None:
        self.calls = 0

    def requests(self, op):
        return [op]

    def call(self, request):
        self.calls += 1
        time.sleep(0.01)

    def verify(self, request, answer):
        return 1


def test_speed_sampler_clock_leaves_out_the_sampler_time():
    sampler = speed.SpeedSampler()
    with sampler:
        before, t0, c0 = sampler.mark(), time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1, c1, after = time.perf_counter(), sampler.clock(), sampler.mark()
    assert after[0] - before[0] >= 5
    assert (c1 - c0) == pytest.approx(t1 - t0 - (after[2] - before[2]), abs=1e-3)
    assert speed.slowdown(before, after) == pytest.approx(
        (after[1] - before[1]) / (after[0] - before[0]) / speed.CALIBRATION_REF_S)


def test_measured_times_are_divided_by_the_slowdown():
    m = run.measure(SleepWorkload(), 0.1, run.Tally(), sampler=speed.SpeedSampler())
    assert m["ops"] == len(m["walls"]) == len(m["slowdowns"]) >= 2
    for wall, raw, factor, p50 in zip(m["walls"], m["raw_walls"], m["slowdowns"], m["p50s"]):
        assert factor > 0 and raw > 0
        assert wall == pytest.approx(raw / factor) == pytest.approx(p50)


def test_setup_timer_prints_the_start_time_and_the_slowdown():
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_timer.py"), str(ROOT / "src")],
                          input="\n", capture_output=True, text=True, timeout=120, check=True)
    seconds, factor = map(float, done.stdout.split())
    assert seconds > 0 and factor > 0


def test_setup_starts_are_spread_between_operations():
    workload = SleepWorkload()

    class Timer:
        def __init__(self):
            self.times, self.ops_before = [], []

        def start(self):
            self.times.append(0.1)
            self.ops_before.append(workload.calls)

    timer = Timer()
    m = run.measure(workload, 0.1, run.Tally(), setup=timer)
    assert len(timer.times) == run.SETUP_STARTS
    assert timer.ops_before[0] == 1 and timer.ops_before[-1] > 1
    assert m["ops"] == workload.calls and len(m["p50s"]) == m["ops"]


def test_peak_rss_counts_children_waited_for():
    touch = "b = bytearray(96 << 20)\nb[::4096] = b'x' * len(b[::4096])\n"
    subprocess.run([sys.executable, "-c", touch], check=True)
    assert run.peak_rss_mb() >= 96


# --- tracing -----------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     a1 [2, 3]
    #   3   b  [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [spans.NO_PARENT, 0, 1, 0]
    assert list(spans.self_times(starts, ends, parents)) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_count_overlapping_children_once_and_clip_them():
    # children [1, 6] and [4, 8] overlap on [4, 6]; [9, 12] sticks out past 10
    starts = [0.0, 1.0, 4.0, 9.0]
    ends = [10.0, 6.0, 8.0, 12.0]
    parents = [spans.NO_PARENT, 0, 0, 0]
    own = spans.self_times(starts, ends, parents)
    assert own[0] == 10.0 - 7.0 - 1.0
    assert sum(own) != 10.0  # the stray child breaks the sum check


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_and_totals_add_up():
    tracer = spans.Tracer(clock=FakeClock())

    def leaf(x):
        return x + 1

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    def gen(k):
        yield from range(k)

    traced_leaf = tracer.wrap("core.leaf", leaf)
    traced_middle = tracer.wrap("witness.middle", middle, record=lambda args, r: r)
    traced_gen = tracer.wrap("mahavier.gen", gen)

    root = tracer.open(tracer.name_id("bench.request"))
    assert traced_middle(1) == 4
    assert list(traced_gen(3)) == [0, 1, 2]
    tracer.close(root)

    names = [tracer.names[i] for i in tracer.name_ids]
    assert names == ["bench.request", "witness.middle", "core.leaf", "core.leaf", "mahavier.gen"]
    assert list(tracer.parents) == [spans.NO_PARENT, 0, 1, 1, 0]
    assert tracer.records["witness.middle"] == [4]

    totals = spans.TraceTotals()
    totals.add(tracer)
    assert totals.calls["core.leaf"] == 2
    assert totals.child_s["witness.middle"] == 2.0
    assert totals.consistent()
    assert sum(totals.layer_self_s().values()) == totals.root_s


def test_opaque_spans_swallow_nested_calls():
    tracer = spans.Tracer(clock=FakeClock())
    inner = tracer.wrap("core.inner", lambda: 1)
    outer = tracer.wrap("witness.precondition", lambda: inner() + 1, opaque=True)
    assert outer() == 2
    assert [tracer.names[i] for i in tracer.name_ids] == ["witness.precondition"]


def test_rebinding_is_undone_after_the_traced_run():
    import finrel
    import finrel.cli
    import finrel.witness

    originals = (finrel.cli.run, finrel.witness.is_full, finrel.core.Relation.__post_init__)
    tracer = spans.Tracer()
    plan = spans.plan_rebinding(tracer, {})
    with spans.rebound(plan):
        assert finrel.cli.run is not originals[0]
        f = finrel.gamma_relation()
        finrel.gamma_witness(f)
    assert (finrel.cli.run, finrel.witness.is_full, finrel.core.Relation.__post_init__) == originals
    names = {tracer.names[i] for i in tracer.name_ids}
    assert {"witness.gamma_witness", "witness.precondition", "core.relation_init"} <= names
    assert "core.is_full" not in names  # only called inside opaque precondition spans


# --- the whole run -----------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_declared_metrics(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(["--workload", "census-iso-n4", "--seed", "1", "--seconds", "0.1",
                       "--trace", trace])
    assert rc == 0
    *_, info_line, result_line = out.getvalue().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {d["name"]: d["unit"] for d in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    info = json.loads(info_line)["info"]
    assert {"python", "numpy", "nproc", "seed", "commit"} <= set(info)
    if trace == "1":
        assert info["trace_consistent"] is True
        assert result["metrics"]["census.survivors"]["value"] == 80
