"""tripod-sta benchmark: time to an accurate sweep result, and where it goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  One client runs the workload's CLI sweep in-process through
`tripod_sta.cli.main` with jobs=1, in a closed loop (the next sweep starts
when the previous one returns), for about S seconds.  Every sweep's CSV is
checked; the default-seed config, run first as warm-up, is also compared with
the committed tight-tolerance reference.  --trace 0 reports the end-to-end
metrics, with every time scaled to a reference machine speed by the kernel
in speed.py; --trace 1 alternates traced and untraced sweeps and reports the
per-layer metrics, the tracing overhead and the layer probes.  The last line
of stdout is the result JSON; perfbench/README.md lists every metric.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads; the user's own settings win.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from speed import REFERENCE_S, kernel_seconds, scaled
from workloads import DEFAULT_SEED, WORKLOADS, check_output, make_config, reference_deviation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

MIN_SWEEPS = 3  # per timed series, whatever --seconds says

# Unit and better-direction of every reported metric (mirrors BENCHMARK.json).
END_TO_END = {
    "sweep_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "max_abs_dev": ("1", "lower"),
}

_COUNT_LOWER = (
    "qmath.ode_solve.calls qmath.steps_accepted qmath.steps_rejected qmath.rhs_evals qmath.expm.calls "
    "tripod.hamiltonian.calls controls.make_envelopes.calls controls.evaluate.calls "
    "controls.energy_cost.calls controls.threshold.cost_evals dynamics.propagate_unitary.calls "
    "dynamics.lindblad_batch.calls metrics.map_fidelity.calls metrics.uncertainty_avg.calls "
    "oracles.magnus_full_gate.calls oracles.oracle_b.calls cli.tasks trace.spans"
).split()
_SECONDS_LOWER = (
    "qmath.ode_solve_s qmath.rhs_s qmath.stepper_s tripod.gates_s controls.energy_cost_s controls.threshold_s "
    "dynamics.propagate_unitary_s dynamics.lindblad_batch_s metrics.map_fidelity_s metrics.uncertainty_avg_s "
    "oracles.magnus_full_gate_s oracles.oracle_b_s cli.load_spec_s cli.run_s cli.write_s "
    "cli.self_s controls.self_s tripod.self_s qmath.self_s dynamics.self_s metrics.self_s oracles.self_s "
    "trace.sweep_s trace.untraced_sweep_s trace.overhead_s"
).split()
_PROBE_MS = [
    f"probe.propagate_unitary.{flavor}.tg{tg}_ms" for flavor in ("adiabatic", "satd") for tg in (2, 5, 30)
] + [
    "probe.map_fidelity.satd.tg5_ms",
    "probe.uncertainty_avg21.satd.tg5_ms",
    "probe.energy_cost.satd.tg5_ms",
    "probe.cost_threshold_2x_ms",
    "probe.oracle_b.tg5_ms",
]
PER_LAYER = {
    **{name: ("count", "lower") for name in _COUNT_LOWER},
    **{name: ("s", "lower") for name in _SECONDS_LOWER},
    "qmath.accept_ratio": ("1", "higher"),
    "qmath.state_elems": ("count", "higher"),
    "dynamics.batch_states": ("count", "higher"),
    "tripod.hamiltonian_us": ("us", "lower"),
    "dynamics.unitarity_defect_max": ("1", "lower"),
    "dynamics.trace_defect_max": ("1", "lower"),
    "dynamics.min_eigenvalue_min": ("1", "higher"),
    "trace.counts_identical": ("bool", "higher"),
    "probe.hamiltonian_us": ("us", "lower"),
    **{name: ("ms", "lower") for name in _PROBE_MS},
    **{
        f"probe.propagate_unitary.{flavor}.tg{tg}_steps": ("count", "lower")
        for flavor in ("adiabatic", "satd")
        for tg in (2, 5, 30)
    },
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tripod_sta import cli
cli.load_spec(sys.argv[2], sys.argv[3])
print(repr(time.perf_counter() - t0))
"""


class Timing(NamedTuple):
    wall: float
    cpu: float


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (e.g. no program to measure)."""


def import_program():
    """Import tripod_sta from this checkout's src/, never from elsewhere."""
    if not (SRC / "tripod_sta" / "cli.py").is_file():
        raise BenchmarkError(f"no program under {SRC}: run from the root of a tripod-sta checkout")
    sys.path.insert(0, str(SRC))
    from tripod_sta import cli

    if Path(cli.__file__).resolve().parent != (SRC / "tripod_sta").resolve():
        raise BenchmarkError(f"imported tripod_sta from {cli.__file__}, not from {SRC}")
    return cli


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "jobs": 1,
        "clients": 1,
        "loop": "closed",
    }


class Bench:
    """One benchmark run: a workload, its seeded config, and the tally of
    attempted and failed sweeps."""

    def __init__(self, cli, workload, seed: int):
        self.cli = cli
        self.w = workload
        self.work = RESULTS / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.tag = f"{workload.name}-{os.getpid()}"
        self.out = self.work / f"{self.tag}.csv"
        self.cfg = make_config(workload, seed, str(self.out))
        self.config_path = self._write_config(self.cfg, f"seed{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_text: str | None = None

    def _write_config(self, cfg: dict, label: str) -> Path:
        path = self.work / f"{self.tag}-{label}.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def sweep(self, path: Path) -> tuple[Timing, str | None]:
        """One closed-loop request: a full CLI call, timed, with its output read."""
        self.out.unlink(missing_ok=True)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main([*self.w.argv, "--config", str(path)])
        except Exception:  # a crashing sweep is a failed request, not a crashed benchmark
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        timing = Timing(wall, cpu)
        self.attempted += 1
        if code != 0:
            self.fail(f"sweep exited with {code}")
            return timing, None
        return timing, self.out.read_text() if self.out.is_file() else None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"check failed ({self.w.name}): {message}", file=sys.stderr)

    def checked_sweep(self) -> Timing | None:
        """A sweep of the seeded config whose output passes every check and
        is byte-identical to the first one; None if it failed."""
        timing, text = self.sweep(self.config_path)
        if text is None:
            return None
        problems = check_output(self.w, self.cfg, text)
        if self.expected_text is None:
            self.expected_text = text
        elif text != self.expected_text:
            problems.append("output differs from the first sweep of the same config")
        if problems:
            self.fail("; ".join(problems))
            return None
        return timing

    def reference_check(self) -> float:
        """Run the default-seed config (also the warm-up) and compare its
        CSV with the committed reference; returns max_abs_dev."""
        cfg = make_config(self.w, DEFAULT_SEED, str(self.out))
        _, text = self.sweep(self._write_config(cfg, "reference"))
        if text is None:
            return 1.0  # nothing to compare: the largest error an eps cell can carry
        dev, problems = reference_deviation(self.w, text, (REFERENCE / f"{self.w.name}.csv").read_text())
        problems += check_output(self.w, cfg, text)
        if problems:
            self.fail("reference check: " + "; ".join(problems))
        return dev

    def setup_time(self) -> float:
        """Seconds a fresh process takes to import tripod_sta and run
        cli.load_spec on the seeded config (measured inside that process)."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config_path), self.w.name]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError(f"setup process failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def cleanup(self) -> None:
        for path in self.work.glob(f"{self.tag}*"):
            path.unlink(missing_ok=True)


def timed_series(seconds: float, run_one, min_calls: int = MIN_SWEEPS) -> list:
    """Call run_one in a closed loop for about `seconds` (at least min_calls
    calls); a call is not started when the median call so far would overrun."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        result = run_one()
        durations.append(time.perf_counter() - t0)
        if result is not None:
            results.append(result)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_calls and elapsed + statistics.median(durations) > seconds:
            return results


def end_to_end(bench: Bench, seconds: float, max_abs_dev: float) -> tuple[dict, dict]:
    # One fresh-process set-up after each sweep spreads the set-up samples
    # over the run.  The speed kernel runs between every two timed parts, and
    # each part is scaled by the kernel runs on either side of it (speed.py).
    bench.setup_time()  # untimed: compiles the bytecode caches
    kernel = [kernel_seconds(), kernel_seconds()]  # the first one warms up
    raw: list[Timing] = []
    scaled_sweeps: list[Timing] = []
    setup_raw: list[float] = []
    setup: list[float] = []

    def sweep_then_setup():
        timing = bench.checked_sweep()
        kernel.append(kernel_seconds())
        if timing is not None:
            raw.append(timing)
            scaled_sweeps.append(Timing(*(scaled(t, kernel[-2], kernel[-1]) for t in timing)))
        setup_raw.append(bench.setup_time())
        kernel.append(kernel_seconds())
        setup.append(scaled(setup_raw[-1], kernel[-2], kernel[-1]))
        return timing

    timed_series(seconds, sweep_then_setup)
    if not scaled_sweeps:
        raise BenchmarkError("every timed sweep failed")
    metrics = {
        "sweep_s": statistics.median(t.wall for t in scaled_sweeps),
        "cpu_s": statistics.median(t.cpu for t in scaled_sweeps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_abs_dev": max_abs_dev,
    }
    detail = {
        "raw_sweeps": [t._asdict() for t in raw],
        "raw_sweep_s": statistics.median(t.wall for t in raw),
        "scaled_sweeps": [t._asdict() for t in scaled_sweeps],
        "raw_setup_s": setup_raw,
        "scaled_setup_s": setup,
        "kernel_s": kernel[1:],
        "kernel_reference_s": REFERENCE_S,
    }
    return metrics, detail


def per_layer(bench: Bench, seconds: float, prov: dict) -> tuple[dict, dict]:
    from layer_trace import LayerTracer
    from probes import run_probes

    t0 = time.perf_counter()
    tracers: list[LayerTracer] = []
    untraced: list[Timing] = []
    traced: list[Timing] = []

    def pair():
        timing = bench.checked_sweep()
        if timing is not None:
            untraced.append(timing)
        tracer = LayerTracer(run_id=len(tracers), t0=t0)
        with tracer.installed():
            timing = bench.checked_sweep()
        if timing is not None:
            traced.append(timing)
            tracers.append(tracer)
        return timing

    timed_series(seconds, pair, min_calls=2)
    if not tracers or not untraced:
        raise BenchmarkError("every traced or untraced sweep failed")

    counts = [tracer.counts() for tracer in tracers]
    identical = all(c == counts[0] for c in counts[1:]) and len(counts) >= 2
    if not identical:
        bench.fail("counts differ between traced sweeps of the same config")
    per_sweep = [tracer.metrics() for tracer in tracers]
    metrics = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
    metrics["trace.sweep_s"] = statistics.median(t.wall for t in traced)
    metrics["trace.untraced_sweep_s"] = statistics.median(t.wall for t in untraced)
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - metrics["trace.untraced_sweep_s"]
    metrics["trace.counts_identical"] = 1 if identical else 0
    metrics.update(run_probes())

    spans_path = RESULTS / f"{bench.w.name}-seed{prov['seed']}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": prov, "fields": ["name", "start_s", "end_s", "parent", "run_id"]}) + "\n")
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    detail = {
        "traced_sweeps": [t._asdict() for t in traced],
        "untraced_sweeps": [t._asdict() for t in untraced],
        "counts": counts[0],
        "per_sweep": per_sweep,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
        RESULTS.mkdir(exist_ok=True)
        prov = provenance(args)
        print(json.dumps({"provenance": prov}), flush=True)
        bench = Bench(cli, WORKLOADS[args.workload], args.seed)
        try:
            max_abs_dev = bench.reference_check()
            if args.trace:
                metrics, detail = per_layer(bench, args.seconds, prov)
                table = PER_LAYER
            else:
                metrics, detail = end_to_end(bench, args.seconds, max_abs_dev)
                table = END_TO_END
        finally:
            bench.cleanup()
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
    }
    record = {
        "provenance": prov,
        **result,
        "failed_frac": bench.failed / bench.attempted,
        "max_abs_dev": max_abs_dev,
        "problems": bench.problems,
        "detail": detail,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
