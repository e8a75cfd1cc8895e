#!/usr/bin/env python3
"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record.py --scale full --seeds 0-31
    python3 bench/record.py --scale tiny --seeds 0-3

Runs one unit of each workload per input seed and stores its
fingerprints in ``bench/references.json``, keeping entries of other
scales.  A fingerprint identical for every recorded seed (a result that
does not depend on the seed) is stored once under ``shared``.  Run it only
on the commit whose outputs define correct; any operation that raises
aborts the recording.
"""

import argparse
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import calibrate
import workloads


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name, scale, seeds):
    workload = workloads.WORKLOADS[name]
    per_seed = {}
    scratch = run.OUT / f"record-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for seed in seeds:
            sf, inp = run.set_up(workload, seed, scale, scratch)
            outputs = workload.unit(sf, inp, calibrate.Clock())
            fps, failures = workloads.outcome(workload, outputs, inp, None)
            if failures:
                raise SystemExit(f"{name} seed {seed}: " + "; ".join(failures))
            per_seed[str(seed)] = fps
            print(f"{name} {scale} seed {seed}: recorded {', '.join(fps)}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    shared = {}
    if len(seeds) > 1:
        first = per_seed[str(seeds[0])]
        shared = {op: fp for op, fp in first.items()
                  if all(fps[op] == fp for fps in per_seed.values())}
    return {"shared": shared,
            "seeds": {s: {op: fp for op, fp in fps.items() if op not in shared}
                      for s, fps in per_seed.items()}}


def dumps(obj, indent=0):
    """JSON with dicts expanded and every fingerprint on one line."""
    if not isinstance(obj, dict):
        return json.dumps(obj)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    ap.add_argument("--seeds", default=f"0-{workloads.BANK - 1}",
                    help="inclusive range such as 0-31")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    for name in workloads.WORKLOADS:
        refs.setdefault(name, {})[args.scale] = record(name, args.scale, seeds)
    run.REFERENCES.write_text(dumps(refs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
