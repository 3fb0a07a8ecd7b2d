"""Workloads, timing and output checks of the otfsim benchmark.

End-to-end run (one workload, untraced, one worker):

* ``trials_per_s`` — trials completed per second of ``runner.run``, the
  median of ``REPETITIONS`` timed repetitions after a warm-up.  Each
  repetition calls ``runner.run`` on the whole scenario until its share of
  the measured seconds is used, so a faster engine still gives a long run.
  Fixed-channel runs pay the detector build at each SNR point, as users do.
* ``setup_s`` — median over fresh interpreters, one before each timed
  repetition, of the time to import otfsim and load the workload's scenario.
* ``peak_rss_mb`` — peak resident memory of this process after the timed
  repetitions (before the checks, which start worker processes).

Layer run (every workload): untraced and traced calls of ``runner.run``
alternate for an equal share of the measured seconds.  The traced calls
give each layer's self time and calls per trial (``tracing.Tracer``) and
``runner.other_us``, the trial time outside every span; the difference
between traced and untraced time per trial is the tracing overhead.  The
one-tap sweep is also timed, untraced, at one and at two workers (median
of ``SWEEP_CALLS`` calls each).
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from otfsim import runner

import reference
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR.parent / ".bench_out"

REPETITIONS = 15  # timed repetitions per end-to-end run; the median is reported
REFERENCE_POINTS = 2  # SNR points per workload recomputed by the reference link
SWEEP_CALLS = 3  # one-tap sweep calls per worker count; the median is reported

# Per-layer metrics of each workload as (layer, form): "us" and "ms" are
# self time per trial, "calls" is calls per trial.  A layer is listed only
# on the workloads that call it.  multiuser.despread is wrapped but no
# workload calls it: the mmse_dd downlink detects the stacked users jointly.
COMMON_LAYERS = (
    ("runner.rng", "us"),
    ("channel.apply", "us"),
    ("transforms.heisenberg", "us"),
    ("transforms.wigner", "us"),
    ("metrics.map_bits", "us"),
    ("metrics.slice", "us"),
    ("metrics.count_errors", "us"),
    ("metrics.papr", "us"),
)
LAYERS = {
    "onetap_sweep": COMMON_LAYERS
    + (
        ("channel.tf_response", "us"),
        ("transforms.isfft", "us"),
        ("transforms.sfft", "us"),
        ("modem.modulate", "us"),
        ("equalizer.one_tap", "us"),
    ),
    "mmse_random": COMMON_LAYERS
    + (
        ("channel.draw", "us"),
        ("channel.effective_matrix", "ms"),
        ("channel.effective_matrix", "calls"),
        ("transforms.isfft", "us"),
        ("transforms.sfft", "us"),
        ("modem.modulate", "us"),
        ("modem.demodulate", "us"),
        ("equalizer.mmse_filter", "ms"),
        ("equalizer.mmse_filter", "calls"),
    ),
    "mu_mmse_fixed": COMMON_LAYERS
    + (
        ("channel.chain_matrix", "ms"),
        ("channel.chain_matrix", "calls"),
        ("equalizer.mmse_filter", "ms"),
        ("equalizer.mmse_filter", "calls"),
        ("multiuser.superpose", "us"),
    ),
}
UNITS = {"us": "us", "ms": "ms", "calls": "calls/trial"}
SCALE = {"us": 1e6, "ms": 1e3}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


@dataclass
class Result:
    attempted: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class Workload:
    """A scenario template with ``--seed`` as its seed, loaded through the public API."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.raw = json.loads((BENCH_DIR / "scenarios" / f"{name}.json").read_text())
        self.raw["seed"] = seed
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"{name}-seed{seed}.json"
        self.path.write_text(json.dumps(self.raw, indent=2) + "\n")
        self.scenario = runner.load_scenario(self.path)
        self.trials_per_call = self.scenario.trials * len(self.scenario.snr_db_list)

    def run(self, workers: int = 1):
        return runner.run(self.scenario, workers=workers)

    def warm_up(self, seconds: float) -> None:
        start = time.perf_counter()
        self.run()
        while time.perf_counter() - start < seconds:
            self.run()

    def check(self, results, csvs) -> list:
        """Problems in the outputs of this workload (empty when all checks pass).

        ``results`` is one ``runner.run`` result at one worker and ``csvs``
        the CSVs of the other calls made in the run.
        """
        sc = self.scenario
        problems = []
        csv = runner.format_csv(results)
        (OUT / f"{self.name}-seed{self.seed}.csv").write_text(csv)
        if any(c != csv for c in csvs):
            problems.append(f"{self.name}: CSV differs between calls on the same scenario")
        rows = csv.splitlines()[1:]
        if len(rows) != len(sc.snr_db_list):
            problems.append(f"{self.name}: {len(rows)} CSV rows for {len(sc.snr_db_list)} SNR points")
        for row in rows:
            if row.split(",")[2] != str(sc.trials):
                problems.append(f"{self.name}: row {row!r} does not have {sc.trials} trials")
        if runner.format_csv(self.run(workers=2)) != csv:
            problems.append(f"{self.name}: CSV at workers=2 differs from workers=1")
        link = reference.Link(self.raw)
        points = random.Random(self.seed).sample(range(len(sc.snr_db_list)), REFERENCE_POINTS)
        for i in sorted(points):
            got = (results[i].bit_errors, results[i].symbol_errors)
            want = link.point_errors(i)
            if got != want:
                problems.append(
                    f"{self.name}: at {sc.snr_db_list[i]} dB (bit, symbol) errors are "
                    f"{got}, the reference link gives {want}"
                )
        return problems


def setup_seconds(scenario_path: Path) -> float:
    """Seconds a fresh interpreter takes to import otfsim and load the scenario."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(scenario_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def measure_end_to_end(name: str, seed: int, seconds: float) -> Result:
    wl = Workload(name, seed)
    wl.warm_up(0.1 * seconds)
    rates, csvs, setup = [], [], []
    calls = 0
    for _ in range(REPETITIONS):
        # fresh-interpreter probes spread over the run, between timed repetitions
        setup.append(setup_seconds(wl.path))
        rep_calls = 0
        start = time.perf_counter()
        while True:
            results = wl.run()
            rep_calls += 1
            elapsed = time.perf_counter() - start
            # stop when another call would overshoot the share more than it falls short
            if elapsed * (1.0 + 0.5 / rep_calls) >= seconds / REPETITIONS:
                break
        rates.append(rep_calls * wl.trials_per_call / elapsed)
        csvs.append(runner.format_csv(results))
        calls += rep_calls
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"{name}: trials/s per repetition {[round(r) for r in rates]}, "
        f"setup_s {[round(s, 4) for s in setup]}",
        file=sys.stderr,
    )
    return Result(
        attempted=calls * wl.trials_per_call,
        metrics={
            "trials_per_s": metric(statistics.median(rates), "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        },
        problems=wl.check(results, csvs),
    )


def trace_workload(wl: Workload, seconds: float, result: Result) -> None:
    """Alternate untraced and traced calls for ``seconds``; add the layer metrics."""
    wl.warm_up(0.0)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    calls = 0
    csvs = []
    start = time.perf_counter()
    while calls == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results = wl.run()
        plain_s += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            traced = wl.run()
            traced_s += time.perf_counter() - t0
        csvs.append(runner.format_csv(traced))
        calls += 1
    trials = calls * wl.trials_per_call
    result.attempted += 2 * trials
    result.problems += wl.check(results, csvs)

    prefix = wl.name + "."
    for layer, form in LAYERS[wl.name]:
        if form == "calls":
            value = tracer.calls[layer] / trials
        else:
            value = tracer.self_s[layer] / trials * SCALE[form]
        result.metrics[f"{prefix}{layer}_{form}"] = metric(value, UNITS[form])
    result.metrics[prefix + "runner.other_us"] = metric(
        (traced_s - tracer.covered_s()) / trials * 1e6, "us"
    )
    result.metrics[prefix + "trace.overhead_us"] = metric((traced_s - plain_s) / trials * 1e6, "us")
    result.metrics[prefix + "trace.overhead_pct"] = metric(100.0 * (traced_s / plain_s - 1.0), "%")
    table = {layer: [tracer.self_s[layer], tracer.calls[layer]] for layer in sorted(tracer.calls)}
    (OUT / f"trace-{wl.name}-seed{wl.seed}.json").write_text(
        json.dumps({"trials": trials, "plain_s": plain_s, "traced_s": traced_s,
                    "self_s_and_calls": table}, indent=2) + "\n"
    )


def measure_layers(names, seed: int, seconds: float) -> Result:
    result = Result()
    for name in names:
        trace_workload(Workload(name, seed), seconds / len(names), result)
    sweep = Workload("onetap_sweep", seed)
    sweep.warm_up(0.0)
    for workers in (1, 2):
        times = []
        for _ in range(SWEEP_CALLS):
            t0 = time.perf_counter()
            sweep.run(workers=workers)
            times.append(time.perf_counter() - t0)
        result.metrics[f"runner.sweep_w{workers}_s"] = metric(statistics.median(times), "s")
    return result
