"""The fflv-tools benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it uses the library in ``src/`` and
nothing installed.  Workloads (see ``workloads.py`` and README.md):

* ``suite``: ``fflv verify suite --json`` on the shipped default sweep, as a
  subprocess per pass;
* ``words``: tilings and Lusztig counts of random reduced words drawn from
  ``--seed``;
* ``crystal``: the crystal layer.

A pass runs the workload's whole case list and checks every case.  Passes
repeat until ``--seconds`` have elapsed, and for at least 3 passes and 100
cases.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics (see ``tracer.py``) and the tracing overhead.
End-to-end times are at reference host speed: calibration samples taken
between cases remove the shared host's speed drift (see ``pace.py``); the
raw times are printed as comments.  The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from typing import NamedTuple

import tracer
from pace import CAL_REF_S, Pace

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("suite", "words", "crystal")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("case_p50_ms", "ms"),
    ("case_p90_ms", "ms"),
)
SETUP_PROBES = 21  # fresh interpreters per run; setup_s is their median
MIN_CASE_SAMPLES = 100  # p90 then has at least ten samples above it
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
SUITE_ARGS = ("verify", "suite", "--json")
PACE_MARKER = "perfbench-pace "  # prefix of the sample line paced_cli.py writes


class Pass(NamedTuple):
    """One pass over a workload's case list (times from ``perf_counter``)."""

    start: float
    end: float
    attempted: int
    spans: list  # (start, end) of each case; empty when unknown
    seconds: list  # each case's own seconds, used when spans are unknown
    failures: list
    summary: dict | None  # trace summary of a traced pass


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


# --- one pass ------------------------------------------------------------------


def run_cases(cases, pace: Pace | None = None) -> tuple[float, float, list, list[str]]:
    """Run every case once: (pass start, pass end, case spans, failures).

    A case fails when it raises, when a warning escapes it (a
    ``BoxEscalationWarning`` marks a possibly truncated set), or when its
    check rejects the output.  With ``pace``, a calibration sample is taken
    between cases whenever ``pace.GAP_S`` of work has passed.
    """
    spans: list[tuple[float, float]] = []
    failures: list[str] = []
    start = time.perf_counter()
    for case in cases:
        if pace is not None:
            pace.tick()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = time.perf_counter()
            try:
                out, err = case.run(), None
            except Exception as exc:  # a raising case is a failed case
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            spans.append((t, time.perf_counter()))
        if err is None and caught:
            err = f"warning escaped: {caught[0].category.__name__}: {caught[0].message}"
        if err is None:
            err = case.check(out)
        if err:
            failures.append(f"{case.name}: {err}")
    return start, time.perf_counter(), spans, failures


def load_suite_reference() -> list[dict]:
    with open(os.path.join(HERE, "reference", "suite.json")) as fh:
        return json.load(fh)


def check_suite_output(returncode: int, stdout: str, stderr: str, reference: list[dict]):
    """(per-report seconds, failure messages) of one ``verify suite --json`` run.

    Every report must pass and equal the seed reference once its ``seconds``
    field is dropped.  A bad exit code, stray stderr (an escaped warning) or
    unreadable output fails every case.
    """
    whole = None
    if returncode != 0:
        whole = f"exit code {returncode}: {stderr.strip()[-200:]}"
    elif stderr:
        whole = f"unexpected stderr: {stderr.strip()[:200]}"
    else:
        try:
            reports = json.loads(stdout)
        except ValueError:
            reports = None
        if not isinstance(reports, list) or len(reports) != len(reference):
            whole = "report array unreadable or of the wrong length"
    if whole:
        return [], [f"suite: {whole}"] * len(reference)
    times, failures = [], []
    for got, want in zip(reports, reference):
        times.append(got.pop("seconds", 0.0))
        if not got.get("passed") or got != want:
            failures.append(f"suite: {got.get('claim')}({got.get('params')}) differs from reference")
    return times, failures


def suite_pass(reference, traced: bool, pace: Pace | None = None) -> Pass:
    """One CLI run: traced under ``traced_cli.py``; with ``pace`` under
    ``paced_cli.py``, whose calibration samples join ``pace``; else plain."""
    if traced or pace is not None:
        script = "traced_cli.py" if traced else "paced_cli.py"
        cmd = [sys.executable, os.path.join(HERE, script), *SUITE_ARGS]
    else:
        cmd = [sys.executable, "-m", "fflv.cli", *SUITE_ARGS]
    if pace is not None:
        pace.sample()
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    end = time.perf_counter()
    if pace is not None:
        pace.sample()
    summary = paced = None
    stderr = []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith(tracer.TRACE_MARKER):
            summary = json.loads(line[len(tracer.TRACE_MARKER):])
        elif line.startswith(PACE_MARKER):
            paced = json.loads(line[len(PACE_MARKER):])
        else:
            stderr.append(line)
    seconds, failures = check_suite_output(proc.returncode, proc.stdout, "".join(stderr), reference)
    if traced and summary is None:
        failures.append("suite: traced run wrote no trace summary")
    spans = []
    if paced is not None and pace is not None:
        pace.merge(paced["samples"], start, end)
        spans = [(s, e) for s, e in paced["claims"] if start <= s <= e <= end]
        if len(spans) != len(seconds):  # claims not wrapped: use their own seconds
            spans = []
    return Pass(start, end, len(reference), spans, seconds, failures, summary)


# --- set-up ----------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, pace: Pace) -> tuple[float, float]:
    """Median time of fresh interpreters that only set the workload up:
    (at reference speed, raw).

    For ``suite`` that is CLI start-up (``fflv word --n 1``); otherwise
    imports plus input generation, up to where the first case would start.
    A calibration sample is taken before and after each one.
    """
    if workload == "suite":
        cmd = [sys.executable, "-m", "fflv.cli", "word", "--n", "1"]
        want = "(1)\n"
    else:
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
        want = ""
    spans = []
    pace.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        spans.append((t0, time.perf_counter()))
        pace.sample()
        if proc.returncode != 0 or proc.stdout != want:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-400:]}")
    return (
        statistics.median(pace.scaled(t0, t1) for t0, t1 in spans),
        statistics.median(t1 - t0 for t0, t1 in spans),
    )


# --- runs --------------------------------------------------------------------------


def _enough(start: float, seconds: float, passes: int, cases: int, min_passes: int) -> bool:
    return (
        time.perf_counter() - start >= seconds
        and passes >= min_passes
        and cases >= MIN_CASE_SAMPLES
    )


def pass_runner(workload: str, seed: int):
    """Set the workload up; return ``one_pass(traced, pace=None) -> Pass``."""
    if workload == "suite":
        reference = load_suite_reference()
        return lambda traced, pace=None: suite_pass(reference, traced, pace)

    import workloads

    cases = workloads.BUILDERS[workload](seed)
    spans = tracer.Tracer()

    def one_pass(traced: bool, pace: Pace | None = None) -> Pass:
        if traced:
            spans.install()
        try:
            start, end, case_spans, fails = run_cases(cases, pace)
        finally:
            spans.uninstall()
        seconds = [t1 - t0 for t0, t1 in case_spans]
        return Pass(start, end, len(cases), case_spans, seconds, fails, spans.summary() if traced else None)

    return one_pass


def _latencies(p: Pass, pace: Pace) -> list[float]:
    """Per-case seconds of a pass at reference speed."""
    if p.spans:
        return [pace.scaled(t0, t1) for t0, t1 in p.spans]
    ratio = pace.scaled(p.start, p.end) / (p.end - p.start)
    return [t * ratio for t in p.seconds]


def _quantiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p90) in ms; zeros when there are no latencies (every suite run failed)."""
    if len(samples) < 2:
        return 0.0, 0.0
    return statistics.median(samples) * 1e3, statistics.quantiles(samples, n=10)[8] * 1e3


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    """Untraced passes: end-to-end metrics, cases attempted, failures.

    Times are at reference host speed (see ``pace.py``); the raw ones are
    printed as comments.
    """
    pace = Pace()
    setup_s, setup_raw = setup_seconds(workload, seed, pace)
    one_pass = pass_runner(workload, seed)
    passes: list[Pass] = []
    start = time.perf_counter()
    while not _enough(start, seconds, len(passes), sum(p.attempted for p in passes), MIN_PASSES):
        passes.append(one_pass(False, pace))
    pace.sample()
    walls = [pace.scaled(p.start, p.end) for p in passes]
    latencies = [t for p in passes for t in _latencies(p, pace)]
    raw = [t for p in passes for t in p.seconds]
    who = resource.RUSAGE_CHILDREN if workload == "suite" else resource.RUSAGE_SELF
    p50, p90 = _quantiles(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,  # ru_maxrss is in KiB
        "case_p50_ms": p50,
        "case_p90_ms": p90,
    }
    raw_p50, raw_p90 = _quantiles(raw)
    print(f"# {workload}: {len(passes)} passes, {len(latencies)} case latencies")
    print(
        f"# calibration: {len(pace.starts)} samples, mean {pace.mean_s() * 1e3:.4f} ms"
        f" (reference {CAL_REF_S * 1e3:g} ms)"
    )
    print("# pass walls at reference speed (s): " + " ".join(f"{w:.3f}" for w in walls))
    print(
        f"# raw: wall_s {statistics.median(p.end - p.start for p in passes):.4f}"
        f" setup_s {setup_raw:.4f} case_p50_ms {raw_p50:.4f} case_p90_ms {raw_p90:.4f}"
    )
    return metrics, sum(p.attempted for p in passes), [f for p in passes for f in p.failures]


def measure_traced(workload: str, seed: int, seconds: float):
    """Alternate untraced and traced passes, without calibration.

    Returns (per-layer metrics, cases attempted, failures, absent metrics).
    Self times are medians over the traced passes; counts come from the
    first one, and every later traced pass must repeat them exactly.
    """
    one_pass = pass_runner(workload, seed)
    plain, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while not _enough(start, seconds, len(plain), attempted, 2):
        for on in (False, True):
            p = one_pass(on)
            wall = p.end - p.start
            attempted += p.attempted
            failures += p.failures
            if not on:
                plain.append(wall)
            elif p.summary is None:
                failures.append("traced pass produced no trace summary")
            else:
                traced.append((wall, p.summary, *tracer.layer_metrics(p.summary)))
    if not traced:
        return {}, attempted, failures, []
    first = traced[0][2]
    for _, _, values, _ in traced[1:]:
        diff = [k for k in first if not k.endswith("self_s") and values[k] != first[k]]
        if diff:
            failures.append(f"trace counts differ between traced passes: {diff[:5]}")
    metrics = {
        k: statistics.median(t[2][k] for t in traced) if k.endswith("self_s") else v
        for k, v in first.items()
    }
    metrics["trace.wall_s"] = statistics.median(t[0] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    metrics["trace.covered_frac"] = statistics.median(t[1]["covered_s"] / t[0] for t in traced)
    print(f"# {workload}: {len(plain)} untraced and {len(traced)} traced passes")
    return metrics, attempted, failures, traced[0][3]


def per_layer_spec() -> list[tuple[str, str]]:
    spec = [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.covered_frac", "ratio")]
    spec += [(f"{layer}.self_s", "s") for layer in tracer.LAYERS]
    for layer, fn, _ in tracer.FUNCTIONS:
        spec += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    spec += [(name, unit) for name, unit, _, _ in tracer.COUNTERS]
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fflv", "__init__.py")):
        print(f"error: no fflv package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fflv

    if not os.path.abspath(fflv.__file__).startswith(SRC + os.sep):
        print(f"error: imported fflv from {fflv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        values, attempted, failures, absent = measure_traced(args.workload, args.seed, args.seconds)
        spec = per_layer_spec()
    else:
        values, attempted, failures = measure(args.workload, args.seed, args.seconds)
        absent = []
        spec = list(END_TO_END)

    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    metrics = {}
    for name, unit in spec:
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        note = "  (absent)" if name in absent else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    if args.trace and values:
        wall = values["trace.wall_s"]
        shares = ", ".join(
            f"{layer} {values[f'{layer}.self_s'] / wall:.1%}" for layer in tracer.LAYERS
        )
        print(f"# self-time shares of the traced pass: {shares}")
    print(f"# fail_frac = {len(failures) / max(attempted, 1):.4g} ({len(failures)} of {attempted} cases)")
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
