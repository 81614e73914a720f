#!/usr/bin/env python3
"""dirtycast benchmark: four workloads over verify, the figure sweeps and the
Monte Carlo ML decoder, driven in-process through dirtycast's public
functions and timed from outside.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 reports the end-to-end metrics from an untraced run; --trace 1
wraps every public function of every dirtycast module and reports
per-module metrics instead.
Every run checks the outputs it produces.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full result,
with provenance, goes to perfbench/results/.  Exit code: 0 when every check
passed, 1 on a failed check, 2 when the benchmark could not run.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402

WORKLOADS = ("verify", "figures", "decode-cap", "decode-small")
MODULES = ("core", "binary", "gaussian", "correlated", "simulate", "figures", "verify")
FIGURES = ("fig2", "fig4", "fig5", "fig6")

# sha256 of each figure CSV (render_csv of figure_table) at the seed commit.
FIGURE_SHA256 = {
    "fig2": "c3b74d73b3b7d869f308da8659534b18160e3b5fa6e5f30020f3d61ee93f3347",
    "fig4": "f768b2f7a8b21401eb25857e37a75d83023efa2960bdc0e38683cba47598a5a1",
    "fig5": "18f2b919a3a6254ff2e3705878c5ffadb79d1956cf1b37d5eda53d824cc3961c",
    "fig6": "cfc4edc4944aebb5c80144895ce6aca45a7b62a1ca0b7fe50389cf70ebf813b2",
}

VERIFY_CHECKS = (
    "entropy-basics",
    "gaussian-mi-properties",
    "rho-map-upper-i",
    "rho-map-upper-ii",
    "binary-bounds-ordered",
    "binary-entropy-sandwich",
    "binary-large-k-limit",
    "binary-weight-enumeration",
    "binary-binning-rate",
    "scheme-mi-estimate",
    "gaussian-ordering",
    "gaussian-branch-continuity",
    "gaussian-lower-vs-grid",
    "gaussian-upper-vs-rho-min",
    "gaussian-dpc-oracle",
    "gaussian-noise-rotation",
    "gaussian-rate-distortion-floor",
    "gaussian-high-snr-gap",
    "gaussian-universal-gap",
    "gaussian-k-user",
    "correlated-t-and-bridge",
    "correlated-scaled-and-gaps",
    "figures-deterministic",
)

GAUSSIAN_CLOSED_FORMS = tuple(
    f"gaussian.{f}"
    for f in (
        "upper_i",
        "upper_ii",
        "upper_envelope",
        "lower_bound",
        "rate_timeshare",
        "rate_interference_as_noise",
    )
)
BINARY_CLOSED_FORMS = tuple(
    f"binary.{f}"
    for f in (
        "xor_convolve",
        "xor_entropy",
        "capacity_two_user",
        "rate_timeshare",
        "rate_ignore_side_info",
        "joint_xor_entropy",
        "upper_bound_k",
        "lower_bound_k",
        "noisy_two_user_bounds",
    )
)

END_TO_END = (
    ("setup_s", "s"),
    ("unit_s_p95", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded by every untraced run, but not in BENCHMARK.json
# because they are not steady enough to bound on a shared host (README.md).
REPORTED_ONLY = (("unit_s_p50", "s"), ("unit_s_tail", "s"), ("units_per_s", "1/s"))

PER_LAYER = (
    (
        ("core.minimize_scalar.calls", "count"),
        ("core.minimize_scalar.s", "s"),
        ("core.minimize_scalar.evals_per_call", "count"),
        ("core.gaussian_mi.calls", "count"),
        ("core.gaussian_mi.s", "s"),
        ("core.binary_entropy.calls", "count"),
        ("gaussian.objective.evals", "count"),
        ("gaussian.maximize_power_split.calls", "count"),
        ("gaussian.maximize_power_split.s", "s"),
        ("gaussian.closed_forms.calls", "count"),
        ("gaussian.closed_forms.s", "s"),
        ("binary.joint_xor_entropy.calls", "count"),
        ("binary.joint_xor_entropy.s", "s"),
        ("binary.closed_forms.s", "s"),
        ("correlated.s", "s"),
    )
    + tuple((f"figures.figure_table.{f}.s", "s") for f in FIGURES)
    + (("figures.render_csv.s", "s"), ("figures.csv_bytes", "B"))
    + tuple((f"verify.{c}.s", "s") for c in VERIFY_CHECKS)
    + (
        ("simulate.iid_trial_s", "s"),
        ("simulate.linear_trial_s", "s"),
        ("simulate.small_trial_s", "s"),
        ("simulate.codeword_bits_compared", "count"),
        ("simulate.bit_compares_per_s", "1/s"),
        ("simulate.codebook_bytes", "B_computed"),
        ("simulate.thread_speedup", "ratio"),
    )
    + tuple((f"{m}.self_s", "s") for m in MODULES)
    + (
        ("trace.untraced_unit_s", "s"),
        ("trace.traced_unit_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    )
)

SETUP_PROBES = 21
# z of every statistical check: a check this wide fails a correct simulator
# with probability ~1e-9, so no seed trips it by chance.
CHECK_Z = 6.0

# Per-user decoding errors and decodes (two per trial) of the seed commit's
# simulator at each decode workload's settings, by codebook kind, from
# simulate_scheme(spec, SchemeRun(n, rate, trials, seed=2024, codebook=kind))
# with 40000 trials on decode-small and 120 per codebook kind on decode-cap.
FER_REFERENCE = {
    ("decode-small", "iid"): (7809, 80000),
    ("decode-cap", "iid"): (66, 240),
    ("decode-cap", "linear"): (61, 240),
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_dirtycast():
    """Import dirtycast from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dirtycast" / "__init__.py").is_file():
        raise ImportError(f"no dirtycast sources under {src}")
    sys.path.insert(0, str(src))
    import dirtycast
    from dirtycast import binary, cli, core, correlated, figures, gaussian, simulate, verify

    if Path(dirtycast.__file__).resolve().parent != (src / "dirtycast").resolve():
        raise ImportError(f"dirtycast imported from {dirtycast.__file__}, not {src}")
    return {
        "package": dirtycast,
        "core": core,
        "binary": binary,
        "gaussian": gaussian,
        "correlated": correlated,
        "simulate": simulate,
        "figures": figures,
        "verify": verify,
        "cli": cli,
    }


def _no_span(_name):
    return contextlib.nullcontext()


def wilson(successes: float, n: int, z: float):
    centre = (successes + z * z / 2.0) / (n + z * z)
    half = z * math.sqrt(successes * (n - successes) / n + z * z / 4.0) / (n + z * z)
    return centre - half, centre + half


class Workload:
    """A named set of inputs.  `unit(i)` does one unit of work on input i and
    returns the list of its correctness failures (empty when it passed)."""

    name = ""
    trace_units = 1

    def __init__(self, dc, seed):
        self.dc = dc
        self.seed = seed
        self.span = _no_span
        self.thread_speedup = None

    def sizes(self) -> dict:
        return {}

    def unit(self, index) -> list:
        raise NotImplementedError

    # Checks run once after the timed phase, if the workload has any.
    post_checks = None

    def instrument(self, tracer):
        """Add the workload's own spans; returns a callable that removes them."""
        self.span = tracer.span

        def restore():
            self.span = _no_span

        return restore


class VerifyWorkload(Workload):
    name = "verify"
    trace_units = 2

    def sizes(self):
        v = self.dc["verify"]
        grids = ("P_GRID", "Q_GRID_LINEAR", "Q_GRID_LOG", "RHO_MAP_P", "RHO_MAP_Q")
        sizes = {g.lower(): len(getattr(v, g, ())) for g in grids}
        return {"checks": len(v.CHECKS), **sizes}

    def unit(self, index):
        v = self.dc["verify"]
        results = v.run_checks()
        fails = [f"check {r.name} failed: {r.detail}" for r in results if not r.passed]
        if len(results) != len(v.CHECKS):
            fails.append(f"{len(results)} results for {len(v.CHECKS)} checks")
        return fails

    def instrument(self, tracer):
        v = self.dc["verify"]
        original = v.CHECKS

        def in_span(name, func):
            def check():
                with tracer.span(f"verify.{name}"):
                    return func()

            return check

        v.CHECKS = tuple((name, in_span(name, func)) for name, func in original)

        def restore():
            v.CHECKS = original

        return restore


class FiguresWorkload(Workload):
    name = "figures"
    trace_units = 40

    def sizes(self):
        rows = {f: len(self.dc["figures"].figure_table(f)[1]) for f in FIGURES}
        return {"rows": rows, "total_rows": sum(rows.values())}

    def unit(self, index):
        figures = self.dc["figures"]
        fails = []
        for name in FIGURES:
            header, rows = figures.figure_table(name)
            text = figures.render_csv(header, rows)
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            if digest != FIGURE_SHA256[name]:
                fails.append(f"{name} CSV sha256 {digest} != {FIGURE_SHA256[name]}")
        return fails


class DecodeWorkload(Workload):
    """Simulation campaigns of the precancellation scheme with i.i.d.
    Bernoulli(Q) interference; unit i runs on seeds derived from (seed, i)."""

    Q = 0.25
    NOISE_Q = None
    N = RATE = TRIALS = None
    CODEBOOKS = ()

    def __init__(self, dc, seed):
        super().__init__(dc, seed)
        binary = dc["binary"]
        self.spec = binary.BinaryChannelSpec.iid(self.Q, noise_q=self.NOISE_Q)
        self.crossover = binary.xor_convolve(self.spec.xor_probability, self.NOISE_Q or 0.0)
        self.codewords = 2 ** round(self.N * self.RATE)
        # Counts pooled over every report of the run, checked by post_checks.
        self.crossings = [0, 0]  # interfered-half mismatches, samples
        self.user_errors = {kind: [0, 0] for kind in self.CODEBOOKS}  # errors, decodes

    def sizes(self):
        return {
            "n": self.N,
            "rate": self.RATE,
            "codewords": self.codewords,
            "trials_per_campaign": self.TRIALS,
            "codebooks": list(self.CODEBOOKS),
            "q": self.Q,
            "noise_q": self.NOISE_Q,
            "threads": 1,
        }

    def runs(self, index, trials=None):
        import numpy as np

        seeds = np.random.SeedSequence([self.seed, index]).generate_state(
            len(self.CODEBOOKS), dtype=np.uint64
        )
        run_cls = self.dc["simulate"].SchemeRun
        trials = trials or self.TRIALS
        return [
            run_cls(n=self.N, rate=self.RATE, trials=trials, seed=int(s), codebook=kind)
            for s, kind in zip(seeds, self.CODEBOOKS)
        ]

    def check_report(self, run, report):
        fails = []
        tag = f"{run.codebook} seed {run.seed}"
        if report.codewords != self.codewords or report.trials != run.trials:
            fails.append(f"{tag}: {report.codewords} codewords, {report.trials} trials")
        n = report.interfered_samples
        mismatches = round(report.empirical_crossover * n)
        self.crossings[0] += mismatches
        self.crossings[1] += n
        if n:
            lo, hi = wilson(mismatches, n, CHECK_Z)
            if not lo <= self.crossover <= hi:
                fails.append(
                    f"{tag}: crossover {report.empirical_crossover} over {n} samples "
                    f"excludes {self.crossover}"
                )
        if report.frame_error_rate is None:
            fails.append(f"{tag}: no frame error rate")
        else:
            e1, e2, eu = (
                round(x * run.trials)
                for x in (report.fer_user1, report.fer_user2, report.frame_error_rate)
            )
            if not max(e1, e2) <= eu <= min(run.trials, e1 + e2):
                fails.append(f"{tag}: union errors {eu} vs per-user {e1}, {e2}")
            self.user_errors[run.codebook][0] += e1 + e2
            self.user_errors[run.codebook][1] += 2 * run.trials
        return fails

    def post_checks(self):
        """Over all reports of the run, the crossover must lie in the Wilson
        interval of the pooled mismatches, and each codebook kind's per-user
        error rate must agree with FER_REFERENCE (two-proportion z-test), so
        that a wrong decoder fails even where one report has too few trials
        to show it."""
        mismatches, samples = self.crossings
        lo, hi = wilson(mismatches, samples, CHECK_Z)
        fails = []
        if not lo <= self.crossover <= hi:
            fails.append(f"pooled crossover {mismatches}/{samples} excludes {self.crossover}")
        for kind, (errors, decodes) in self.user_errors.items():
            ref_errors, ref_decodes = FER_REFERENCE[self.name, kind]
            pooled = (errors + ref_errors) / (decodes + ref_decodes)
            se = math.sqrt(pooled * (1 - pooled) * (1 / decodes + 1 / ref_decodes))
            if abs(errors / decodes - ref_errors / ref_decodes) > CHECK_Z * se:
                fails.append(
                    f"{kind}: {errors}/{decodes} user decodes failed, "
                    f"{ref_errors}/{ref_decodes} at the seed commit"
                )
        return fails

    def unit(self, index):
        simulate = self.dc["simulate"]
        fails = []
        for run in self.runs(index):
            with self.span(f"bench.{self.name}.{run.codebook}"):
                report = simulate.simulate_scheme(self.spec, run, threads=1)
            fails += self.check_report(run, report)
        return fails


class DecodeCapWorkload(DecodeWorkload):
    name = "decode-cap"
    trace_units = 2
    N, RATE, TRIALS = 40, 0.5, 1
    CODEBOOKS = ("iid", "linear")

    def post_checks(self):
        """Round 0, widened to nproc trials per codebook so that every thread
        gets work, must give identical reports at threads=1 and threads=nproc;
        then the pooled checks of every decode workload."""
        simulate = self.dc["simulate"]
        threads = nproc()
        runs = self.runs(0, trials=threads)
        reports, seconds = {}, {}
        for t in (1, threads):
            start = time.perf_counter()
            reports[t] = [simulate.simulate_scheme(self.spec, r, threads=t) for r in runs]
            seconds[t] = time.perf_counter() - start
        self.thread_speedup = seconds[1] / seconds[threads]
        fails = []
        for run, report in zip(runs, reports[1]):
            fails += self.check_report(run, report)
        if reports[1] != reports[threads]:
            fails.append(f"reports differ between threads=1 and threads={threads}")
        return fails + super().post_checks()


class DecodeSmallWorkload(DecodeWorkload):
    name = "decode-small"
    trace_units = 10
    N, RATE, TRIALS = 24, 0.25, 2000
    NOISE_Q = 0.05
    CODEBOOKS = ("iid",)


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (VerifyWorkload, FiguresWorkload, DecodeCapWorkload, DecodeSmallWorkload)
}


class Outcomes:
    """Attempted and failed units, with the first twenty failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, func, *args):
        self.attempted += 1
        try:
            fails = func(*args)
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            traceback.print_exc(file=sys.stderr)
            fails = [f"raised {type(exc).__name__}: {exc}"]
        if fails:
            self.failed += 1
            self.messages.extend(fails[: 20 - len(self.messages)])
        return fails


def setup_probe(name, seed):
    """Wall time of a fresh interpreter that imports dirtycast, builds the
    workload's inputs and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    cmd += ["--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def percentile(durations, pct):
    """Nearest-rank percentile."""
    xs = sorted(durations)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def tail(durations):
    """(seconds, percentile) at the highest percentile that still has ten
    units beyond it; the slowest unit when that percentile would fall below
    the median."""
    xs = sorted(durations)
    i = len(xs) - 11
    if i < (len(xs) - 1) // 2:
        i = len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(ws, seconds, max_units=None):
    outcomes = Outcomes()
    # Half the set-up probes run before the timed phase and half after it,
    # so that they sample the host's speed at two moments of the run.
    setup_samples = [setup_probe(ws.name, ws.seed) for _ in range(SETUP_PROBES // 2)]
    outcomes.run(ws.unit, 0)  # warm-up: fill caches and finish lazy set-up
    durations = []
    start = time.perf_counter()
    index = 1
    while True:
        t0 = time.perf_counter()
        outcomes.run(ws.unit, index)
        durations.append(time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or (max_units is not None and len(durations) >= max_units):
            break
    rss = peak_rss_mb()
    if ws.post_checks:
        outcomes.run(ws.post_checks)
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(setup_probe(ws.name, ws.seed))
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "unit_s_p95": percentile(durations, 95),
        "peak_rss_mb": rss,
        "unit_s_p50": statistics.median(durations),
        "unit_s_tail": tail_s,
        "units_per_s": len(durations) / elapsed,
    }
    unlisted = "not in BENCHMARK.json"
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "unit_s_p95": f"n={len(durations)}",
        "peak_rss_mb": "ru_maxrss after the timed phase",
        "unit_s_p50": f"n={len(durations)}, {unlisted}",
        "unit_s_tail": f"p{tail_pct:.4g} of n={len(durations)}, {unlisted}",
        "units_per_s": f"{len(durations)} units in {elapsed:.4g} s, {unlisted}",
    }
    extra = {"setup_samples_s": setup_samples, "unit_samples_s": durations}
    return metrics, notes, outcomes, extra


def run_traced(ws, max_units=None):
    """Run each unit untraced, then again traced, and derive per-layer
    metrics from the spans.  Unit counts are fixed per workload, so counts
    repeat exactly between runs and the span log stays bounded."""
    outcomes = Outcomes()
    units = max_units or ws.trace_units
    outcomes.run(ws.unit, 0)  # warm-up
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for index in range(1, units + 1):
        start = time.perf_counter()
        outcomes.run(ws.unit, index)
        untraced_s += time.perf_counter() - start
        tracer.run_id = index
        tracer.install(ws.dc.values())
        remove_spans = ws.instrument(tracer)
        try:
            start = time.perf_counter()
            with tracer.span("bench.unit"):
                outcomes.run(ws.unit, index)
            traced_s += time.perf_counter() - start
        finally:
            remove_spans()
            tracer.uninstall()
    if ws.post_checks:
        outcomes.run(ws.post_checks)

    metrics = layer_metrics(tracer, units, ws)
    metrics["trace.untraced_unit_s"] = untraced_s / units
    metrics["trace.traced_unit_s"] = traced_s / units
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / units
    notes = {name: f"per unit, {units} traced units" for name, _ in PER_LAYER}
    notes["core.minimize_scalar.evals_per_call"] = "objective evaluations per call"
    notes["simulate.bit_compares_per_s"] = "codeword bits compared per simulate second"
    notes["simulate.codebook_bytes"] = "computed as M*n per trial"
    notes["simulate.thread_speedup"] = f"threads=1 time over threads={nproc()} time"
    RESULTS_DIR.mkdir(exist_ok=True)
    spans_path = RESULTS_DIR / f"spans-{ws.name}.csv"
    tracer.write_csv(spans_path)
    extra = {"traced_units": units, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, notes, outcomes, extra


def layer_metrics(tracer, units, ws):
    """Per-unit counts and seconds of each layer.  A layer the workload does
    not reach reads 0."""
    spans, counters = tracer.spans, tracer.counters
    summary = tracing.summarize(spans)
    calls, total = summary["calls"], summary["total_s"]

    def per_unit_calls(name):
        return calls.get(name, 0) / units

    def per_unit_s(name):
        return total.get(name, 0.0) / units

    def mean_s(name):
        return total[name] / calls[name] if calls.get(name) else 0.0

    m = {}
    for name in ("core.minimize_scalar", "core.gaussian_mi", "gaussian.maximize_power_split"):
        m[f"{name}.calls"] = per_unit_calls(name)
        m[f"{name}.s"] = per_unit_s(name)
    minimizer_calls = calls.get("core.minimize_scalar", 0)
    m["core.minimize_scalar.evals_per_call"] = (
        counters["core.minimize_scalar.evals"] / minimizer_calls if minimizer_calls else 0.0
    )
    m["core.binary_entropy.calls"] = per_unit_calls("core.binary_entropy")
    m["gaussian.objective.evals"] = counters["gaussian.objective.evals"] / units
    m["gaussian.closed_forms.calls"] = sum(calls.get(n, 0) for n in GAUSSIAN_CLOSED_FORMS) / units
    m["gaussian.closed_forms.s"] = tracing.group_seconds(spans, GAUSSIAN_CLOSED_FORMS) / units
    m["binary.joint_xor_entropy.calls"] = per_unit_calls("binary.joint_xor_entropy")
    m["binary.joint_xor_entropy.s"] = per_unit_s("binary.joint_xor_entropy")
    m["binary.closed_forms.s"] = tracing.group_seconds(spans, BINARY_CLOSED_FORMS) / units
    correlated = [n for n in calls if n.startswith("correlated.")]
    m["correlated.s"] = tracing.group_seconds(spans, correlated) / units
    for fig in FIGURES:
        m[f"figures.figure_table.{fig}.s"] = per_unit_s(f"figures.figure_table.{fig}")
    m["figures.render_csv.s"] = per_unit_s("figures.render_csv")
    m["figures.csv_bytes"] = counters["figures.csv_bytes"] / units
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = per_unit_s(f"verify.{check}")

    m["simulate.iid_trial_s"] = mean_s("bench.decode-cap.iid")
    m["simulate.linear_trial_s"] = mean_s("bench.decode-cap.linear")
    m["simulate.small_trial_s"] = mean_s("bench.decode-small.iid") / DecodeSmallWorkload.TRIALS
    bits = counters["simulate.codeword_bits_compared"]
    simulate_s = total.get("simulate.simulate_scheme", 0.0)
    m["simulate.codeword_bits_compared"] = bits / units
    m["simulate.bit_compares_per_s"] = bits / simulate_s if bits else 0.0
    decode_trials = counters["simulate.decode_trials"]
    m["simulate.codebook_bytes"] = (
        counters["simulate.codebook_bytes"] / decode_trials if decode_trials else 0.0
    )
    m["simulate.thread_speedup"] = ws.thread_speedup or 0.0
    for module in MODULES:
        m[f"{module}.self_s"] = summary["module_self_s"].get(module, 0.0) / units
    m["trace.spans"] = len(spans) / units
    return m


def _git(*args):
    out = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def provenance(ws):
    """Where and on what a result was measured."""
    git_sha = git_dirty = None
    if (ROOT / ".git").exists():
        try:
            git_sha = _git("rev-parse", "HEAD")
            git_dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    import numpy

    return {
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "workload": ws.name,
        "seed": ws.seed,
        "inputs": ws.sizes(),
    }


def run_workload(ws, seconds, trace, max_units=None):
    """Run one workload; returns the result dict that main() prints."""
    if trace:
        metrics, notes, outcomes, extra = run_traced(ws, max_units)
        units = dict(PER_LAYER)
    else:
        metrics, notes, outcomes, extra = run_untraced(ws, seconds, max_units)
        units = dict(END_TO_END + REPORTED_ONLY)
    return {
        "workload": ws.name,
        "trace": int(bool(trace)),
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "fail_frac": outcomes.failed / outcomes.attempted,
        "failures": outcomes.messages,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": notes,
        "provenance": provenance(ws),
        **extra,
    }


def print_result(result):
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  "
          f"trace {result['trace']}")
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<10} {note}")
    print(f"  {'fail_frac':<40} {result['fail_frac']:>14.6g} {'':<10} "
          f"{result['failed']} of {result['attempted']} units failed")
    for message in result["failures"]:
        print(f"  FAIL {message}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def final_line(result):
    """The result line: exactly the metrics BENCHMARK.json lists."""
    listed = dict(PER_LAYER if result["trace"] else END_TO_END)
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m for k, m in result["metrics"].items() if k in listed},
        }
    )


def run_all(args):
    """Every workload in its own interpreter, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-units", type=int, default=None,
                        help="stop after this many timed (or traced) units")
    parser.add_argument("--setup-only", action="store_true",
                        help="import dirtycast, build the inputs and exit (setup_s probe)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.max_units is not None and args.max_units < 1:
        parser.error("--max-units must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        ws = WORKLOAD_CLASSES[args.workload](import_dirtycast(), args.seed)
    except ImportError as exc:
        print(f"error: cannot import dirtycast: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    try:
        result = run_workload(ws, args.seconds, args.trace, args.max_units)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{ws.name}-seed{ws.seed}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_result(result)
    print(final_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
