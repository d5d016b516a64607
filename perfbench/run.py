"""Benchmark of the ``opuc`` command line, run from the root of the repository.

    python3 perfbench/run.py --workload verify-bessel --seed 1 --seconds 30 --trace 0

One op is one in-process call of ``opuc.cli.main(argv)``, on one thread.
The run repeats rounds of the workload's op list (see ``workloads.py``) until
``--seconds`` have passed, checks every output against the benchmark's own
oracles (``checks.py``), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` it
traces a fixed number of rounds instead (``layertrace.py``) and prints the
per-layer metrics.  ``--workload all`` runs every workload, each in a fresh
interpreter.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Op, make_round, poisson_moments  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
# Timings are in reference seconds: wall seconds * REF_PROBE_S / probe, where
# probe is the mean time of a fixed kernel over the readings taken from
# PROBE_WINDOW seconds before the timed call to PROBE_WINDOW seconds after it,
# one reading at most every PROBE_EVERY seconds, between calls.  On a shared
# 2-core machine the speed of one core swings by a third, within seconds and
# over minutes; the probe follows the swings, and the ratio does not.
# REF_PROBE_S is about the probe's time on that machine, so reference
# seconds read like its wall seconds.
REF_PROBE_S = 0.016
PROBE_EVERY = 1.0
PROBE_WINDOW = 5.0
# peak_rss_mb is read after this many rounds, so that it does not grow with
# the number of rounds a faster program fits into --seconds
PEAK_ROUNDS = 2
# rounds a traced run traces, fixed so that its counters repeat exactly
TRACE_ROUNDS = {"verify-bessel": 2, "verify-jacobi": 1, "tables": 3}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "rows_per_s": "1/s",
    "ok_ops_frac": "frac",
    "checks_passed_frac": "frac",
    "peak_rss_mb": "MB",
}


def _probe_kernel() -> complex:
    """Fixed work like the program's: small numpy calls in a Python loop, as
    in the Szego recursion, then vector passes over 2^17 circle points, as in
    a converged contour quadrature."""
    poly = np.polynomial.polynomial
    coeffs = np.linspace(0.1, 1.0, 16).astype(complex)
    acc = 0j
    for k in range(200):
        acc += complex(poly.polyval(complex(0.3, 0.4 + 1e-4 * k), coeffs))
        shifted = np.concatenate(([0.0], coeffs[:-1])) - 0.5j * np.pad(coeffs[1:], (0, 1))
        coeffs = shifted / np.abs(shifted).max()
    t = np.exp(1j * (np.arange(1 << 17) + 0.5) * (2.0 * np.pi / (1 << 17)))
    for k in range(2):
        acc += complex(np.sum(t / (t - (0.5 + 0.1 * k))))
    return acc


class SpeedClock:
    """Probe readings over time, to convert wall seconds to reference seconds."""

    def __init__(self):
        self.ends: list[float] = []     # when each probe finished
        self.times: list[float] = []    # what each probe measured

    def probe(self) -> None:
        samples = []
        for _ in range(3):
            t0 = perf_counter()
            _probe_kernel()
            samples.append(perf_counter() - t0)
        self.ends.append(perf_counter())
        self.times.append(statistics.fmean(samples))

    def refresh(self) -> None:
        """Probe unless the last probe finished less than PROBE_EVERY ago."""
        if not self.ends or perf_counter() - self.ends[-1] >= PROBE_EVERY:
            self.probe()

    def reference(self, start: float, wall: float) -> float:
        """Reference seconds of a call that started at ``start``."""
        first = bisect.bisect_left(self.ends, start - PROBE_WINDOW)
        last = bisect.bisect_right(self.ends, start + wall + PROBE_WINDOW)
        first = min(first, bisect.bisect_right(self.ends, start) - 1)  # the probe before
        return wall * REF_PROBE_S / statistics.fmean(self.times[first:max(last, first + 1)])


@dataclass
class OpResult:
    op: Op
    start: float
    wall: float                 # wall seconds
    rc: int | None              # exit code; None when main() raised
    error: str = ""             # last stderr line, or the uncaught exception
    output: Path | None = None
    rows: int = 0
    checks: int = 0
    passed: int = 0
    seconds: float = 0.0        # reference seconds, set once the run has ended

    @property
    def ok(self) -> bool:
        """Produced output: exit 0 (all checks passed) or 1 (some failed)."""
        return self.rc in (0, 1)


def import_program():
    """Import ``opuc.cli`` afresh from the checkout; returns (module, seconds)."""
    for name in [n for n in sys.modules if n == "opuc" or n.startswith("opuc.")]:
        del sys.modules[name]
    t0 = perf_counter()
    cli = importlib.import_module("opuc.cli")
    return cli, perf_counter() - t0


def setup(clock: SpeedClock):
    """Import the program several times; returns (cli module, median seconds)."""
    if not (SRC / "opuc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'opuc'}")
    sys.path.insert(0, str(SRC))
    imports = []
    for _ in range(SETUP_REPEATS):
        clock.probe()
        start = perf_counter()
        cli, seconds = import_program()
        imports.append((start, seconds))
    clock.probe()
    times = [clock.reference(start, seconds) for start, seconds in imports]
    if Path(cli.__file__).resolve().parent != SRC / "opuc":
        sys.exit(f"perfbench: imported opuc from {cli.__file__}, not from {SRC}")
    return cli, statistics.median(times)


def run_op(main, op: Op, path: Path, clock: SpeedClock) -> OpResult:
    moments = None
    if op.family == "custom":
        moments = path.with_suffix(".moments.csv")
        with open(moments, "w") as fh:
            fh.write("j,re,im\n")
            for j, c in poisson_moments(*op.params, op.degree + 2):
                fh.write(f"{j},{c.real!r},{c.imag!r}\n")
    argv = op.argv(str(moments)) + [op.output_flag, str(path)]
    err = io.StringIO()
    error = ""
    clock.refresh()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:               # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:                # an uncaught program error fails the op
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    if not error:
        lines = err.getvalue().strip().splitlines()
        error = lines[-1] if lines else ""
    return OpResult(op, t0, wall, rc, error, path if rc in (0, 1) else None)


def run_round(main, ops: list[Op], workdir: Path, tag: str, clock: SpeedClock,
              tracer=None) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        path = workdir / f"{tag}-{i}.{'json' if op.command == 'verify' else 'csv'}"
        if tracer is not None:
            tracer.begin_op()
        try:
            results.append(run_op(main, op, path, clock))
        finally:
            if tracer is not None:
                tracer.end_op()
    return results


def check_all(results: list[OpResult]) -> list[str]:
    """Check every output; returns the problems found, by op."""
    from checks import check_output

    problems = []
    seen = set()
    for r in results:
        key = r.op.weight_key
        if key is not None:
            if key in seen:
                problems.append(f"two ops share the weight {key}")
            seen.add(key)
        if r.ok:
            r.rows, r.checks, r.passed, found = check_output(r.op, r.rc, str(r.output))
            problems += [f"{' '.join(r.op.argv('<moments>'))}: {p}" for p in found]
    return problems


def failure_classes(results: list[OpResult]) -> list[str]:
    classes = collections.Counter()
    for r in results:
        if not r.ok:
            message = r.error.split(" below ")[0][:90]
            classes[(r.op.command, r.op.family, r.rc, message)] += 1
    return [f"failed: {n} x {cmd} {fam}, exit {rc}: {msg}"
            for (cmd, fam, rc, msg), n in sorted(classes.items(), key=str)]


def end_to_end(rounds: list[list[OpResult]], setup_s: float, peak_rss_mb: float):
    results = [r for rnd in rounds for r in rnd]
    ok = [r for r in results if r.ok]
    checks = sum(r.checks for r in ok)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r.seconds for r in rnd) for rnd in rounds),
        "op_p50_s": statistics.median(r.seconds for r in ok) if ok else float("nan"),
        "rows_per_s": sum(r.rows for r in ok) / sum(r.seconds for r in ok) if ok else float("nan"),
        "ok_ops_frac": len(ok) / len(results),
        "checks_passed_frac": sum(r.passed for r in ok) / checks if checks else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure(main, workload: str, seed: int, seconds: float, workdir: Path,
            clock: SpeedClock):
    rounds = []
    t0 = perf_counter()
    while len(rounds) < PEAK_ROUNDS or perf_counter() - t0 < seconds:
        k = len(rounds)
        rounds.append(run_round(main, make_round(workload, seed, k), workdir, f"r{k}", clock))
        if k + 1 == PEAK_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.probe()
    for r in (r for rnd in rounds for r in rnd):
        r.seconds = clock.reference(r.start, r.wall)
    return rounds, peak_rss_mb


def measure_traced(main, workload: str, seed: int, workdir: Path, clock: SpeedClock):
    """Trace the first rounds; each is preceded by its untraced twin.

    The twin round moves every weight parameter by one part in 1e9: it does
    the same work but shares no cached weight, so traced minus twin time is
    the tracing overhead.  Span times are scaled from wall to reference
    seconds by the traced ops' mean ratio.
    """
    from layertrace import PER_LAYER, Tracer

    tracer = Tracer()
    results = []
    overhead = traced_ref = traced_wall = 0.0
    for k in range(TRACE_ROUNDS[workload]):
        ops = make_round(workload, seed, k)
        twin = run_round(main, [op.twin() for op in ops], workdir, f"twin{k}", clock)
        tracer.install()
        try:
            traced = run_round(main, ops, workdir, f"r{k}", clock, tracer)
        finally:
            tracer.uninstall()
        clock.probe()
        for r in twin + traced:
            r.seconds = clock.reference(r.start, r.wall)
        traced_ref += sum(r.seconds for r in traced)
        traced_wall += sum(r.wall for r in traced)
        overhead += sum(r.seconds for r in traced) - sum(r.seconds for r in twin)
        results += twin + traced
    values = tracer.metrics()
    metrics = {name: {"value": values[name] * (traced_ref / traced_wall if unit == "s" else 1),
                      "unit": unit}
               for name, unit in PER_LAYER.items()}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return results, metrics, tracer


def run_workload(args) -> int:
    clock = SpeedClock()
    cli, setup_s = setup(clock)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            results, metrics, tracer = measure_traced(cli.main, args.workload, args.seed, workdir,
                                                       clock)
        else:
            rounds, peak = measure(cli.main, args.workload, args.seed, args.seconds, workdir,
                                  clock)
            results = [r for rnd in rounds for r in rnd]
        problems = check_all(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans}")
        print(f"{'function':40s} {'spans':>8s} {'self_s':>9s} {'total_s':>9s}")
        for name, calls, self_t, total in tracer.top():
            print(f"{name:40s} {calls:8d} {self_t:9.4f} {total:9.4f}")
    else:
        metrics = end_to_end(rounds, setup_s, peak)
        wall = sum(r.wall for r in results)
        print(f"rounds: {len(rounds)} of {len(rounds[0])} ops, {wall:.2f} wall seconds "
              f"in ops, {sum(r.seconds for r in results) / wall:.3f} reference s per wall s")
    for line in failure_classes(results) + [f"WRONG OUTPUT: {p}" for p in problems]:
        print(line)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one JSON line per workload."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        summary[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        for name, metric in (summary[workload] or {}).get("metrics", {}).items():
            print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
        status = status or proc.returncode
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
