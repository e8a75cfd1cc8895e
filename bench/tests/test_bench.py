"""Tests of the benchmark itself: names, tracing, time arithmetic, gates.

    python3 -m pytest -q bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]] + list(run.PER_LAYER)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in SPEC["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert units == {**run.END_TO_END, **run.PER_LAYER}
    # layer_metrics yields every per-layer metric but the overhead, even with no spans
    assert set(run.layer_metrics([])) == set(run.PER_LAYER) - {"trace.overhead_s"}


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent)


def tree_error(sp):
    """Worst |busy - (self + children's busy)| over all spans, in seconds."""
    kids = spans.children_of(sp)
    return max((abs(s.duration - spans.self_time(sp, kids, i)
                    - sum(sp[k].duration for k in kids[i]))
                for i, s in enumerate(sp) if kids[i]), default=0.0)


def test_self_time_on_synthetic_nested_spans():
    sp = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a", 2.0, 3.0, 1),     # recursion: counted once in busy()
        _span("b", 5.0, 6.5, 0),
    ]
    kids = spans.children_of(sp)
    assert kids == [[1, 3], [2], [], []]
    assert spans.self_time(sp, kids, 0) == pytest.approx(10.0 - 3.0 - 1.5)
    assert spans.self_time(sp, kids, 1) == pytest.approx(2.0)
    assert spans.self_time(sp, kids, 3) == pytest.approx(1.5)
    assert spans.busy(sp, ["a"]) == pytest.approx(3.0)
    assert spans.busy(sp, ["a", "b"]) == pytest.approx(4.5)
    assert spans.calls(sp, "a") == 2
    assert spans.outermost(sp, ["a"]) == [1]
    assert tree_error(sp) == pytest.approx(0.0, abs=1e-12)


def test_covered_time_merges_overlaps_and_clips_to_parent():
    assert spans._covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 5.0) == pytest.approx(4.0)
    assert spans._covered([(-1.0, 0.5), (7.0, 9.0)], 0.0, 8.0) == pytest.approx(1.5)
    # overlapping children are the one case where busy(children) + self != busy
    sp = [_span("p", 0.0, 4.0), _span("c", 1.0, 3.0, 0), _span("c", 2.0, 3.0, 0)]
    assert tree_error(sp) == pytest.approx(1.0)


def test_tracer_records_parents_and_consistent_times():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.002)

    def outer():
        tracer.call("inner", inner, (), {})
        time.sleep(0.002)
        tracer.call("inner", inner, (), {})

    tracer.call("outer", outer, (), {})
    sp = tracer.take()
    assert [s.name for s in sp] == ["outer", "inner", "inner"]
    assert [s.parent for s in sp] == [-1, 0, 0]
    kids = spans.children_of(sp)
    child_busy = sp[1].duration + sp[2].duration
    assert spans.self_time(sp, kids, 0) + child_busy == pytest.approx(sp[0].duration)
    assert tree_error(sp) < 1e-9
    assert tracer.take() == []


def test_clock_scales_each_operation_by_the_kernels_around_it(monkeypatch):
    kernels = iter([0.1, 0.2, 0.05])
    monkeypatch.setattr(calibrate, "kernel", lambda width: next(kernels))
    monkeypatch.setattr(calibrate, "REFERENCE_S", {8: 0.1})
    # perf_counter readings: kernel end, start, end of each op, staleness checks
    ticks = iter([0.0, 0.0, 0.2, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3, 2.3, 2.3])
    monkeypatch.setattr(calibrate, "perf_counter", lambda: next(ticks))
    clock = calibrate.Clock(8)
    clock.run(lambda: None)            # kernel 0.1 before, 0.2 s
    clock.run(lambda: None)            # 0.2 s after the kernel: no fresh one, 0 s
    clock.run(lambda: None)            # 0.3 s after it, stale: kernel 0.2 before, 2 s
    clock.close()                      # kernel 0.05 after the last
    assert clock.kernels == [0.1, 0.2, 0.05]
    # an operation's host speed is the mean of the kernels before and after it
    assert clock.total(0, 2) == (pytest.approx(0.2), pytest.approx(0.2 * 0.1 / 0.15))
    assert clock.total(2, 3) == (pytest.approx(2.0), pytest.approx(2.0 * 0.1 / 0.125))
    assert clock.total(0, 3)[1] == pytest.approx(0.2 * 0.1 / 0.15 + 2.0 * 0.1 / 0.125)
    # without a width nothing is calibrated and scaled time is raw time
    monkeypatch.undo()
    plain = calibrate.Clock()
    plain.run(time.sleep, 0.001)
    plain.close()
    assert plain.kernels == [] and plain.total(0, 1)[0] == plain.total(0, 1)[1] > 0


def _wrapped(sf):
    return [(owner, attr) for owner, attr, _, _ in run.trace_targets(sf)
            if hasattr(vars(owner)[attr], "__wrapped__")]


def test_wrappers_are_removed_so_untimed_runs_are_untraced():
    sf = run.fresh_import()
    originals = {(id(o), a): vars(o)[a] for o, a, _, _ in run.trace_targets(sf)}
    wl = workloads.WORKLOADS["tw_wide"]
    inp = wl.setup(sf, 0, "tiny", None)
    tracer = spans.Tracer()
    with spans.traced(tracer, run.trace_targets(sf)):
        assert len(_wrapped(sf)) == len(originals)
        wl.unit(sf, inp, calibrate.Clock())
    names = {s.name for s in tracer.take()}
    assert {"trajectories.run_ensemble", "noise.draw_block", "noise.trajectory_generator",
            "trajectories.accumulate_sample", "correlations.fano_sum",
            "trajectories.batch_statistic"} <= names
    assert _wrapped(sf) == []
    assert all(vars(o)[a] is originals[(id(o), a)] for o, a, _, _ in run.trace_targets(sf))
    wl.unit(sf, inp, calibrate.Clock())
    assert tracer.take() == []

    # an exception inside the traced block restores them as well
    with pytest.raises(RuntimeError):
        with spans.traced(tracer, run.trace_targets(sf)):
            raise RuntimeError("boom")
    assert _wrapped(sf) == []


def test_traced_run_leaves_no_wrapper_behind():
    rec = run.run_workload("reproduce", seed=1, seconds=0, trace=1, scale="tiny")
    assert rec["correct"], rec["failures"]
    assert set(rec["metrics"]) == set(run.PER_LAYER)
    layer = {k: m["value"] for k, m in rec["metrics"].items()}
    assert layer["spectra.spectrum.calls"] == 4            # fig4: three drives, fig7: one
    assert layer["presets.travelling_wave_ensemble.calls"] == 1
    assert layer["cli.write_csv.rows"] == 1601             # zeta 0..8 every 10 steps
    assert layer["steady.stability_map.busy_s"] > 0
    assert layer["cli.main.busy_s"] >= layer["trajectories.run_ensemble.busy_s"] > 0
    # in every recorded tree, self time plus the children's busy time is the busy time
    trace = json.loads((run.ROOT / rec["extra"]["trace_file"]["value"]).read_text())
    assert len(trace["repetitions"]) == run.MIN_REPS
    for rows in trace["repetitions"]:
        assert tree_error([spans.Span(*row) for row in rows]) < 1e-9
    # the modules run_workload used are the ones now in sys.modules
    current = SimpleNamespace(**{m: sys.modules[f"sfgsim.{m}"] for m in run.MODULES})
    assert _wrapped(current) == []


# operations one tiny unit runs
TINY_OPS = {"tw_wide": 5, "cavity_narrow": 3, "reproduce": 4}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_passes_its_gate_at_tiny_size(name):
    rec = run.run_workload(name, seed=33, seconds=0, trace=0, scale="tiny")
    assert rec["input_seed"] == 33 % workloads.BANK
    assert rec["correct"] and rec["failed"] == 0, rec["failures"]
    assert rec["extra"]["repetitions"]["value"] == run.MIN_REPS
    assert rec["attempted"] == run.MIN_REPS * TINY_OPS[name]
    assert set(rec["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in rec["metrics"].values())
    if name == "reproduce":
        # known defect, reported rather than hidden: fig7 fails its own check
        assert "fig7: mode 1 cannot steer mode 2" in rec["checks_failed"]


def test_a_changed_output_counts_as_failed():
    refs = json.loads(run.REFERENCES.read_text())
    entry = refs["tw_wide"]["tiny"]
    seed_refs = entry["seeds"]["2"]
    seed_refs["ensemble"] = "0" * 64
    seed_refs["vx3"] = [[v * 1.001 if v else v for v in g] for g in seed_refs["vx3"]]
    rec = run.run_workload("tw_wide", seed=2, seconds=0, trace=0, scale="tiny", refs=refs)
    assert not rec["correct"]
    assert rec["failed"] == 2 * run.MIN_REPS
    assert rec["extra"]["failed_frac"]["value"] == pytest.approx(2 / 5)


def test_value_fingerprints_compare_within_tolerance():
    ref = [[1.0, 2.0, None], [0.0, 1e3]]
    assert workloads.matches([[1.0 + 1e-12, 2.0, None], [1e-10, 1e3]], ref, 1e-9)
    assert not workloads.matches([[1.0 + 1e-6, 2.0, None], [0.0, 1e3]], ref, 1e-9)
    assert not workloads.matches([[1.0, 2.0, 3.0], [0.0, 1e3]], ref, 1e-9)
    assert workloads.matches("ab", "ab", 0.0) and not workloads.matches("ab", "ac", 0.0)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tw_wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
