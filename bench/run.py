#!/usr/bin/env python3
"""Benchmark of sfgsim: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload tw_wide --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 [--save FILE]

Run from the root of a source checkout; ``sfgsim`` is imported from its
``src/``.  One process, one thread: BLAS and ``SFGSIM_THREADS`` are pinned
to 1 before numpy loads.  A run repeats cycles for ``--seconds`` (at
least three): each cycle sets the workload up five times and then runs
its unit of work.  Every set-up and every operation of a unit is timed
between runs of a fixed calibration kernel and scaled to a reference
host speed (``calibrate.py``); ``setup_s`` and ``wall_s`` are the medians
of the scaled times over the run.  With ``--trace 1`` each cycle runs
the unit untraced and then traced; the per-layer metrics come from the
traced ones (median over repetitions, raw span times) and the tracing
overhead is the difference of the two scaled medians.  Every repetition
is checked against the references recorded in ``bench/references.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``record``, holds the full result including the environment stamp.
``--workload all`` runs every workload untraced and traced, one child
process at a time.
"""

import os

# Pinned before numpy is imported, so the BLAS pool starts with one thread.
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "SFGSIM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

# set-ups timed per cycle, spread over the run like the units
SETUPS_PER_CYCLE = 5
# cycles per run at least, traced or not: a reproduce unit alone fills half a run
MIN_REPS = 3
MODULES = ("params", "noise", "trajectories", "correlations", "spectra", "steady",
           "presets", "config", "cli")

END_TO_END = {"setup_s": "s", "wall_s": "s", "traj_steps_per_s": "1/s",
              "peak_rss_mb": "MiB"}

PER_LAYER = {
    "trajectories.run_ensemble.busy_s": "s",
    "trajectories.step_self_s": "s",
    "trajectories.ns_per_traj_step": "ns",
    "trajectories.passes_per_ensemble": "ratio",
    "trajectories.n_diverged": "count",
    "trajectories.accumulate_sample.busy_s": "s",
    "trajectories.accumulate_sample.calls": "count",
    "trajectories.accumulate_sample.ns_per_traj_sample": "ns",
    "trajectories.semiclassical_trajectory.busy_s": "s",
    "trajectories.semiclassical_trajectory.us_per_step": "us",
    "trajectories.batch_statistic.calls": "count",
    "noise.draw_block.busy_s": "s",
    "noise.draw_block.calls": "count",
    "noise.normals_per_s": "1/s",
    "noise.block_mb_max": "MiB",
    "noise.trajectory_generator.busy_s": "s",
    "noise.trajectory_generator.calls": "count",
    "correlations.busy_s": "s",
    "correlations.calls": "count",
    "spectra.spectrum.busy_s": "s",
    "spectra.spectrum.calls": "count",
    "spectra.us_per_freq_point": "us",
    "steady.solve_steady.busy_s": "s",
    "steady.solve_steady.calls": "count",
    "steady.stability.busy_s": "s",
    "steady.stability.calls": "count",
    "steady.stability_map.busy_s": "s",
    "steady.classical_rhs.calls_per_solve": "ratio",
    "presets.travelling_wave_ensemble.calls": "count",
    "cli.main.busy_s": "s",
    "cli.write_csv.busy_s": "s",
    "cli.write_csv.rows": "count",
    "cli.write_sidecar.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

CORRELATIONS = ("quadrature_variance", "quadrature_covariance", "fano", "fano_sum",
                "duan_simon", "epr_product")
SOLVES = ("steady.solve_steady", "steady.solve_steady_general",
          "steady.solve_steady_symmetric")
MiB = 1024.0 * 1024.0


# --- set-up -----------------------------------------------------------------

def fresh_import():
    """Import sfgsim from this checkout's src/, discarding any earlier import."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "sfgsim" or m.startswith("sfgsim.")]:
        del sys.modules[name]
    importlib.import_module("sfgsim.cli")
    found = Path(sys.modules["sfgsim"].__file__).resolve().parent
    if found != (src / "sfgsim").resolve():
        raise ImportError(f"sfgsim imported from {found}, not from {src}")
    return SimpleNamespace(**{m: sys.modules[f"sfgsim.{m}"] for m in MODULES})


def set_up(workload, input_seed, scale, scratch):
    """One fresh import plus input construction: (modules, inputs)."""
    sf = fresh_import()
    return sf, workload.setup(sf, input_seed, scale, scratch)


# --- tracing ----------------------------------------------------------------

def _block_attrs(args, kwargs, out):
    return {"nbytes": out.nbytes, "normals": out.size}


def _ensemble_attrs(args, kwargs, out):
    cfg = args[2]
    return {"n_traj": cfg.n_traj, "n_steps": cfg.n_steps, "n_diverged": out.n_diverged}


def _rows_attrs(args, kwargs, out):
    s = args[2]
    return {"rows": s.shape[0]}


def _steps_attrs(args, kwargs, out):
    return {"n_steps": args[2].n_steps}


def _spectrum_attrs(args, kwargs, out):
    return {"points": out.omega.size}


def _csv_attrs(args, kwargs, out):
    columns = args[1]
    return {"rows": len(next(iter(columns.values()))) if columns else 0}


def trace_targets(sf):
    """(owner, attribute, span name, attrs) for every wrapped entry point.

    Each wrapper sits where the caller looks the name up: ``trajectories``
    imports ``draw_block``/``trajectory_generator`` by name, ``spectra``
    and ``stability`` reach the solvers through ``sfgsim.steady``, and the
    presets and CLI call through their module globals.
    """
    tr = sf.trajectories
    targets = [
        (tr, "run_ensemble", "trajectories.run_ensemble", _ensemble_attrs),
        (tr, "accumulate_sample", "trajectories.accumulate_sample", _rows_attrs),
        (tr, "semiclassical_trajectory", "trajectories.semiclassical_trajectory",
         _steps_attrs),
        (tr.MomentTable, "batch_statistic", "trajectories.batch_statistic", None),
        (tr, "draw_block", "noise.draw_block", _block_attrs),
        (tr, "trajectory_generator", "noise.trajectory_generator", None),
        (sf.spectra, "spectrum", "spectra.spectrum", _spectrum_attrs),
        (sf.steady, "solve_steady", "steady.solve_steady", None),
        (sf.steady, "solve_steady_general", "steady.solve_steady_general", None),
        (sf.steady, "solve_steady_symmetric", "steady.solve_steady_symmetric", None),
        (sf.steady, "stability", "steady.stability", None),
        (sf.steady, "stability_map", "steady.stability_map", None),
        (sf.steady, "classical_rhs", "steady.classical_rhs", None),
        (sf.presets, "travelling_wave_ensemble", "presets.travelling_wave_ensemble", None),
        (sf.cli, "main", "cli.main", None),
        (sf.cli, "write_csv", "cli.write_csv", _csv_attrs),
        (sf.cli, "write_sidecar", "cli.write_sidecar", None),
    ]
    targets += [(sf.correlations, fn, f"correlations.{fn}", None) for fn in CORRELATIONS]
    return targets


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(sp):
    """Every PER_LAYER metric except trace.overhead_s from one repetition's spans."""
    kids = spans.children_of(sp)
    ens = [i for i, s in enumerate(sp) if s.name == "trajectories.run_ensemble"]
    gens = spans.calls(sp, "noise.trajectory_generator")
    n_traj = sum(sp[i].attrs["n_traj"] for i in ens if sp[i].attrs)
    # every generator is one trajectory pass over the ensemble's full grid
    per_traj_steps = {i: sp[i].attrs["n_steps"] for i in ens if sp[i].attrs}
    attempted_steps = 0
    for s in sp:
        if s.name == "noise.trajectory_generator":
            p = s.parent
            while p >= 0 and p not in per_traj_steps:
                p = sp[p].parent
            attempted_steps += per_traj_steps.get(p, 0)
    step_self = sum(spans.self_time(sp, kids, i) for i in ens)
    acc_busy = spans.busy(sp, ["trajectories.accumulate_sample"])
    sc_busy = spans.busy(sp, ["trajectories.semiclassical_trajectory"])
    block_busy = spans.busy(sp, ["noise.draw_block"])
    spec_busy = spans.busy(sp, ["spectra.spectrum"])
    solves = len(spans.outermost(sp, SOLVES))
    blocks = [s.attrs["nbytes"] for s in sp if s.name == "noise.draw_block" and s.attrs]
    corr_names = [f"correlations.{fn}" for fn in CORRELATIONS]
    return {
        "trajectories.run_ensemble.busy_s": spans.busy(sp, ["trajectories.run_ensemble"]),
        "trajectories.step_self_s": step_self,
        "trajectories.ns_per_traj_step": 1e9 * _ratio(step_self, attempted_steps),
        "trajectories.passes_per_ensemble": _ratio(gens, n_traj),
        "trajectories.n_diverged": spans.attr_sum(sp, "trajectories.run_ensemble",
                                                  "n_diverged"),
        "trajectories.accumulate_sample.busy_s": acc_busy,
        "trajectories.accumulate_sample.calls": spans.calls(
            sp, "trajectories.accumulate_sample"),
        "trajectories.accumulate_sample.ns_per_traj_sample": 1e9 * _ratio(
            acc_busy, spans.attr_sum(sp, "trajectories.accumulate_sample", "rows")),
        "trajectories.semiclassical_trajectory.busy_s": sc_busy,
        "trajectories.semiclassical_trajectory.us_per_step": 1e6 * _ratio(
            sc_busy, spans.attr_sum(sp, "trajectories.semiclassical_trajectory", "n_steps")),
        "trajectories.batch_statistic.calls": spans.calls(sp, "trajectories.batch_statistic"),
        "noise.draw_block.busy_s": block_busy,
        "noise.draw_block.calls": spans.calls(sp, "noise.draw_block"),
        "noise.normals_per_s": _ratio(spans.attr_sum(sp, "noise.draw_block", "normals"),
                                      block_busy),
        "noise.block_mb_max": max(blocks, default=0) / MiB,
        "noise.trajectory_generator.busy_s": spans.busy(sp, ["noise.trajectory_generator"]),
        "noise.trajectory_generator.calls": gens,
        "correlations.busy_s": spans.busy(sp, corr_names),
        "correlations.calls": len(spans.outermost(sp, corr_names)),
        "spectra.spectrum.busy_s": spec_busy,
        "spectra.spectrum.calls": spans.calls(sp, "spectra.spectrum"),
        "spectra.us_per_freq_point": 1e6 * _ratio(
            spec_busy, spans.attr_sum(sp, "spectra.spectrum", "points")),
        "steady.solve_steady.busy_s": spans.busy(sp, SOLVES),
        "steady.solve_steady.calls": solves,
        "steady.stability.busy_s": spans.busy(sp, ["steady.stability"]),
        "steady.stability.calls": spans.calls(sp, "steady.stability"),
        "steady.stability_map.busy_s": spans.busy(sp, ["steady.stability_map"]),
        "steady.classical_rhs.calls_per_solve": _ratio(
            spans.calls(sp, "steady.classical_rhs"), solves),
        "presets.travelling_wave_ensemble.calls": spans.calls(
            sp, "presets.travelling_wave_ensemble"),
        "cli.main.busy_s": spans.busy(sp, ["cli.main"]),
        "cli.write_csv.busy_s": spans.busy(sp, ["cli.write_csv"]),
        "cli.write_csv.rows": spans.attr_sum(sp, "cli.write_csv", "rows"),
        "cli.write_sidecar.busy_s": spans.busy(sp, ["cli.write_sidecar"]),
        "trace.spans": len(sp),
    }


# --- environment ------------------------------------------------------------

def _commit():
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    # no git metadata: identify the code by the content of src/
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "pins": {k: os.environ.get(k) for k in PINS},
    }


# --- one workload -----------------------------------------------------------

def run_workload(name, seed, seconds, trace, scale="full", refs=None):
    """Run one workload and return its result record."""
    workload = workloads.WORKLOADS[name]
    input_seed = seed % workloads.BANK
    if refs is None:
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    expected = workloads.reference_for(refs, name, scale, input_seed)
    scratch = OUT / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        sf, _ = set_up(workload, input_seed, scale, scratch)
        # untimed unit on the tiny inputs and an untimed kernel, so first-call
        # costs stay out of the timing
        workload.unit(sf, workload.setup(sf, input_seed, "tiny", scratch), calibrate.Clock())
        width = workload.width if scale == "full" else None
        if width:
            calibrate.kernel(width)
        tracer = spans.Tracer()
        clock = calibrate.Clock(width)
        # clock.ops ranges of each set-up and each unit, untraced and traced
        setups, units = [], {False: [], True: []}
        layers, traces, failures, cycles = [], [], [], []
        attempted, checks_run, checks_failed = 0, 0, set()
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            # set-ups in every cycle, so setup_s samples the same stretch of time as wall_s
            for _ in range(SETUPS_PER_CYCLE):
                gc.collect()      # the garbage of earlier set-ups and units is not set-up
                lo = len(clock.ops)
                sf, inp = clock.run(set_up, workload, input_seed, scale, scratch)
                setups.append((lo, len(clock.ops)))
            for traced in ((False, True) if trace else (False,)):
                gc.collect()
                lo = len(clock.ops)
                if traced:
                    with spans.traced(tracer, trace_targets(sf)):
                        outputs = workload.unit(sf, inp, clock)
                    sp = tracer.take()
                    traces.append(spans.to_rows(sp))
                    layers.append(layer_metrics(sp))
                else:
                    outputs = workload.unit(sf, inp, clock)
                units[traced].append((lo, len(clock.ops)))
                _, bad = workloads.outcome(workload, outputs, inp, expected)
                attempted += len(workload.ops_in(inp))
                failures += bad
                n, failed = workload.checks(outputs, inp)
                checks_run = max(checks_run, n)
                checks_failed.update(failed)
            cycles.append(perf_counter() - cycle_start)
            # stop before a cycle that would end past --seconds
            if len(cycles) >= MIN_REPS and \
                    perf_counter() - start + statistics.median(cycles) > seconds:
                break
        clock.close()
        # (raw, scaled) seconds
        setups = [clock.total(*r) for r in setups]
        walls = {k: [clock.total(*r) for r in v] for k, v in units.items()}
        setup_s = statistics.median(t for _, t in setups)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wall = statistics.median(t for _, t in walls[False])
    extra = {
        "raw_setup_s": (statistics.median(t for t, _ in setups), "s"),
        "raw_wall_s": (statistics.median(t for t, _ in walls[False]), "s"),
        "failed_frac": (len(failures) / attempted, "1"),
        "checks_run": (checks_run, "count"),
        "checks_failed": (len(checks_failed), "count"),
        "repetitions": (len(walls[False]), "count"),
    }
    if trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(t for _, t in walls[True]) - wall
        metrics = {k: {"value": per_layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                          "columns": ["name", "start", "end", "parent"],
                                          "repetitions": traces}), encoding="utf-8")
        extra["trace_file"] = (str(trace_file.relative_to(ROOT)), "path")
    else:
        values = {"setup_s": setup_s, "wall_s": wall,
                  "traj_steps_per_s": workload.traj_steps(inp) / wall,
                  "peak_rss_mb": peak_mib}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "workload": name,
        "seed": seed,
        "input_seed": input_seed,
        "scale": scale,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        # (raw, scaled) seconds of every set-up and unit
        "setups_s": setups,
        "unit_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "kernels_s": clock.kernels,
        # seconds and index of the kernel before it, per timed operation
        "ops": clock.ops,
        "failures": sorted(set(failures)),
        "checks_failed": sorted(checks_failed),
        "env": environment(),
    }


def print_record(rec):
    print(f"workload {rec['workload']} seed {rec['seed']} (input seed {rec['input_seed']}, "
          f"scale {rec['scale']}, trace {rec['trace']})")
    for group in ("metrics", "extra"):
        for k, m in rec[group].items():
            print(f"  {k} {m['value']} {m['unit']}")
    for c in rec["checks_failed"]:
        print(f"  preset check failed: {c}")
    for f in rec["failures"]:
        print(f"  FAILED {f}")
    print("record " + json.dumps(rec, sort_keys=True))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))


# --- all workloads ----------------------------------------------------------

def run_all(args):
    """Every workload untraced then traced, one child process at a time."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}")
            line = next(ln for ln in reversed(done.stdout.splitlines())
                        if ln.startswith("record "))
            results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = \
                json.loads(line[len("record "):])
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "env": environment(),
             "workloads": results}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    recs = [r for w in results.values() for r in w.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": {f"{r['workload']}.{k}": m for r in recs for k, m in r["metrics"].items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="FILE", help="with --workload all: write all records")
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        print_record(run_workload(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
