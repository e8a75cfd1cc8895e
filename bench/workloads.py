"""Benchmark workloads: seeded inputs, one timed unit of work, and fingerprints.

Every workload maps the benchmark seed onto an input seed in a bank of
``BANK`` recorded seeds (``seed % BANK``), so any seed can be checked
against references recorded at the seed commit.  A unit returns one
output per operation (or the exception it raised); ``fingerprint`` turns
an output into either a SHA-256 digest, compared for equality, or groups
of floats compared within the operation's relative tolerance.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np

BANK = 32

# fig1-fig3 presets integrate dt = 5e-4 over zeta 0..8.
REPRODUCE_STEPS = 16000

# Relative tolerances of the value fingerprints.  Spectra and steady
# states leave room for a batched or reordered solve; stability
# boundaries for the bisection's own rel_tol of 1e-6; the semiclassical
# path for an integrator change at the midpoint scheme's O(dt^2) error.
RTOL_WITNESS = 1e-9
RTOL_STEADY = 1e-9
RTOL_SPECTRA = 1e-8
RTOL_BOUNDARY = 2e-6
RTOL_SEMICLASSICAL = 1e-6


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def moments_digest(table):
    """Bit-level digest of every array of a MomentTable."""
    return digest(table.times, table.batch_counts, table.batch_valid,
                  table.a, table.ap, table.aa, table.apap, table.apa, table.nn,
                  np.array([table.n_diverged]))


def summary(x):
    """Seven numbers that move with any change of a series."""
    x = np.asarray(x, dtype=float).ravel()
    return [np.nanmin(x), np.nanmax(x), np.nanmean(x), np.sqrt(np.nanmean(x * x)),
            x[0], x[x.size // 2], x[-1]]


def strided(x, step=8):
    x = np.asarray(x, dtype=float)
    return list(x[::step]) + [x.min(), x.max()]


def _floats(groups):
    return [[None if not np.isfinite(v) else float(v) for v in g] for g in groups]


def matches(fp, ref, rtol):
    """Fingerprint ``fp`` equals reference ``ref`` (groups within ``rtol``)."""
    if isinstance(ref, str) or isinstance(fp, str):
        return fp == ref
    if len(fp) != len(ref):
        return False
    for got, want in zip(fp, ref):
        got = np.array([np.nan if v is None else v for v in got], dtype=float)
        want = np.array([np.nan if v is None else v for v in want], dtype=float)
        if got.shape != want.shape:
            return False
        scale = np.nanmax(np.abs(want)) if np.any(np.isfinite(want)) else 0.0
        if not np.allclose(got, want, rtol=rtol, atol=rtol * scale, equal_nan=True):
            return False
    return True


def _attempt(clock, out, op, fn, *args, **kwargs):
    try:
        out[op] = clock.run(fn, *args, **kwargs)
    except Exception as exc:  # every failure is counted, never fatal
        out[op] = exc
    return out[op]


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    ops = ()
    rtol = {}            # op -> tolerance; ops absent here are digests
    width = 256          # array width of the hot loop, and of the calibration kernel
    sizes = {}           # scale -> size parameters

    def setup(self, sf, input_seed, scale, scratch):
        raise NotImplementedError

    def unit(self, sf, inp, clock):
        """Run every operation through ``clock``; returns op -> output or exception."""
        raise NotImplementedError

    def fingerprint(self, op, output, inp):
        raise NotImplementedError

    def ops_in(self, inp):
        """Operations one unit runs with these inputs."""
        return self.ops

    def checks(self, outputs, inp):
        """(attempted, failed names) of the presets' own physics checks."""
        return 0, []

    def traj_steps(self, inp):
        """Useful ensemble trajectory-steps (n_traj x n_steps) in one unit."""
        raise NotImplementedError


class TwWide(Workload):
    name = "tw_wide"
    width = 16384
    ops = ("ensemble", "vx3", "fano_sum", "duan_simon", "epr12")
    rtol = {op: RTOL_WITNESS for op in ops[1:]}
    sizes = {"full": {"n_traj": 16384, "n_steps": 256},
             "tiny": {"n_traj": 256, "n_steps": 20}}

    def setup(self, sf, input_seed, scale, scratch):
        size = self.sizes[scale]
        tr = sf.trajectories
        return SimpleNamespace(
            params=sf.params.SystemParams.travelling_wave(sf.presets.TW_KAPPA),
            init=tr.PhaseSpacePoint.coherent(alpha1=sf.presets.TW_ALPHA0,
                                             alpha2=sf.presets.TW_ALPHA0),
            cfg=tr.TrajectoryConfig(dt=5e-4, t_max=size["n_steps"] * 5e-4,
                                    n_traj=size["n_traj"], seed=input_seed,
                                    sample_stride=10, mode="travelling-wave",
                                    n_batches=64),
            x3=sf.correlations.QuadratureSpec.x(3),
        )

    def unit(self, sf, inp, clock):
        out = {}
        corr = sf.correlations
        table = _attempt(clock, out, "ensemble", sf.trajectories.run_ensemble,
                         inp.params, inp.init, inp.cfg, threads=1)
        _attempt(clock, out, "vx3", lambda: corr.quadrature_variance(table, inp.x3))
        _attempt(clock, out, "fano_sum", lambda: corr.fano_sum(table))
        _attempt(clock, out, "duan_simon", lambda: corr.duan_simon(table))
        _attempt(clock, out, "epr12", lambda: corr.epr_product(table, 1, 2))
        return out

    def fingerprint(self, op, output, inp):
        if op == "ensemble":
            return moments_digest(output)
        return _floats([summary(output.values), summary(output.se)])

    def traj_steps(self, inp):
        return inp.cfg.n_traj * inp.cfg.n_steps


class CavityNarrow(Workload):
    name = "cavity_narrow"
    ops = ("ensemble", "semiclassical", "steady")
    rtol = {"semiclassical": RTOL_SEMICLASSICAL, "steady": RTOL_STEADY}
    sizes = {"full": {"n_traj": 256, "n_steps": 5000, "n_batches": 64},
             "tiny": {"n_traj": 16, "n_steps": 2000, "n_batches": 8}}

    def setup(self, sf, input_seed, scale, scratch):
        size = self.sizes[scale]
        tr = sf.trajectories
        return SimpleNamespace(
            params=sf.params.SystemParams.symmetric(0.01, 1.0, 10.0, 1000.0),
            init=tr.PhaseSpacePoint.vacuum(),
            cfg=tr.TrajectoryConfig(dt=1e-4, t_max=size["n_steps"] * 1e-4,
                                    n_traj=size["n_traj"], seed=input_seed,
                                    sample_stride=1000, mode="cavity",
                                    n_batches=size["n_batches"]),
        )

    def unit(self, sf, inp, clock):
        out = {}
        tr = sf.trajectories
        _attempt(clock, out, "ensemble", tr.run_ensemble, inp.params, inp.init, inp.cfg,
                 threads=1)
        _attempt(clock, out, "semiclassical", tr.semiclassical_trajectory,
                 inp.params, inp.init, inp.cfg)
        _attempt(clock, out, "steady", sf.steady.solve_steady_general, inp.params)
        return out

    def fingerprint(self, op, output, inp):
        if op == "ensemble":
            return moments_digest(output)
        if op == "semiclassical":
            _, states = output
            return _floats([states.real.ravel(), states.imag.ravel()])
        amps = [output.alpha1, output.alpha2, output.alpha3]
        return _floats([[v for z in amps for v in (z.real, z.imag)]])

    def traj_steps(self, inp):
        return inp.cfg.n_traj * inp.cfg.n_steps


class Reproduce(Workload):
    """Every figure but fig8, as `sfgsim reproduce` computes it, plus a stability map.

    fig1-fig3 run in-process through ``sfgsim.cli.main`` and are checked by
    the digest of the CSV they write.  fig4-fig7 run through the same
    preset runners as ``reproduce`` and are compared within RTOL_SPECTRA,
    so a batched spectral solve that changes rounding still passes.
    """

    name = "reproduce"
    ops = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "stability_map")
    rtol = {"fig4": RTOL_SPECTRA, "fig5": RTOL_SPECTRA, "fig6": RTOL_SPECTRA,
            "fig7": RTOL_SPECTRA, "stability_map": RTOL_BOUNDARY}
    sizes = {"full": {"cli_figs": ("fig1", "fig2", "fig3"), "n_traj": 256,
                      "spectral_figs": ("fig4", "fig5", "fig6", "fig7"), "n_ratio": 20},
             "tiny": {"cli_figs": ("fig1",), "n_traj": 32,
                      "spectral_figs": ("fig4", "fig7"), "n_ratio": 3}}
    KAPPA, GAMMA = 0.01, 1.0

    def setup(self, sf, input_seed, scale, scratch):
        size = self.sizes[scale]
        runs = {}                     # fig -> (argv, output prefix)
        parser = sf.cli.build_parser()
        for fig in size["cli_figs"]:
            prefix = scratch / fig
            argv = ["reproduce", fig, "--n-traj", str(size["n_traj"]),
                    "--seed", str(input_seed), "--threads", "1", "--output", str(prefix)]
            parser.parse_args(argv)   # a malformed command fails in set-up
            runs[fig] = (argv, prefix)
        rng = np.random.default_rng(input_seed)
        ratios = np.sort(rng.uniform(0.5, 20.0, size["n_ratio"]))
        # twice the largest closed-form boundary, as the CLI chooses it
        eps_hi = 2.0 * 2.0 * self.GAMMA * np.sqrt(self.GAMMA * ratios[-1] * self.GAMMA) \
            / self.KAPPA
        return SimpleNamespace(runs=runs, n_traj=size["n_traj"],
                               spectral_figs=size["spectral_figs"],
                               ratios=ratios, eps_range=(0.0, eps_hi))

    def ops_in(self, inp):
        return (*inp.runs, *inp.spectral_figs, "stability_map")

    def unit(self, sf, inp, clock):
        out = {}
        with redirect_stdout(io.StringIO()):
            for fig, (argv, _) in inp.runs.items():
                _attempt(clock, out, fig, sf.cli.main, argv)
        for fig in inp.spectral_figs:
            _attempt(clock, out, fig, sf.presets.PRESETS[fig].run)
        _attempt(clock, out, "stability_map", sf.steady.stability_map,
                 self.KAPPA, self.GAMMA, inp.ratios, inp.eps_range)
        return out

    def fingerprint(self, op, output, inp):
        if op in inp.runs:
            if output != 0:
                return f"exit code {output}"
            csv = inp.runs[op][1].with_suffix(".csv")
            return hashlib.sha256(csv.read_bytes()).hexdigest()
        if op == "stability_map":
            return _floats([
                [r.epsilon_boundary if r.bracketed else np.nan for r in output],
                [r.epsilon_closed_form for r in output],
            ])
        return _floats([strided(output.columns[c]) for c in sorted(output.columns)])

    def checks(self, outputs, inp):
        results = []
        for fig, (_, prefix) in inp.runs.items():
            if outputs.get(fig) == 0:
                sidecar = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
                results += [(fig, c["name"], c["passed"]) for c in sidecar["checks"]]
        for fig in inp.spectral_figs:
            results += [(fig, c.name, c.passed)
                        for c in getattr(outputs.get(fig), "checks", [])]
        return len(results), [f"{fig}: {name}" for fig, name, ok in results if not ok]

    def traj_steps(self, inp):
        return len(inp.runs) * inp.n_traj * REPRODUCE_STEPS


WORKLOADS = {w.name: w for w in (TwWide(), CavityNarrow(), Reproduce())}


def outcome(workload, outputs, inp, refs):
    """Fingerprint each operation and compare; returns (fingerprints, failures)."""
    fps, failures = {}, []
    for op in workload.ops_in(inp):
        out = outputs.get(op)
        if out is None:
            failures.append(f"{op}: no output")
            continue
        if isinstance(out, Exception):
            failures.append(f"{op}: raised {type(out).__name__}: {out}")
            continue
        try:
            fps[op] = workload.fingerprint(op, out, inp)
        except Exception as exc:
            failures.append(f"{op}: fingerprint raised {type(exc).__name__}: {exc}")
            continue
        if refs is None:
            continue
        ref = refs.get(op)
        if ref is None:
            failures.append(f"{op}: no recorded reference")
        elif not matches(fps[op], ref, workload.rtol.get(op, 0.0)):
            failures.append(f"{op}: output differs from the recorded reference")
    return fps, failures


def reference_for(all_refs, workload, scale, input_seed):
    """op -> reference for one input seed (shared entries apply to every seed)."""
    entry = all_refs.get(workload, {}).get(scale, {})
    return {**entry.get("shared", {}), **entry.get("seeds", {}).get(str(input_seed), {})}
