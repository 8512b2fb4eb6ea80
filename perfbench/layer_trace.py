"""Layer tracing of tripod_sta from outside the package.

`LayerTracer.installed()` replaces every public function of the seven
modules (plus `EnvelopeSet.evaluate` and the CLI's task runner) with a timing
wrapper, in every module namespace that holds a reference to it: modules
import names directly, so `ode_solve` must be patched in `dynamics` and
`oracles`, `map_fidelity` in `cli` and `metrics`, and so on.  The originals
are restored on exit.

Each wrapped call pushes a frame that adds its duration to its parent's child
time, so the self time of every function (and of every layer) is exact.
Functions called about 10^5-10^6 times per sweep (`HOT`) only update
aggregate counters and timers; every other call also records one span
(name, start, end, parent span index, run id) kept in memory.  The ODE
right-hand side is wrapped per `ode_solve` call to count RHS evaluations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "controls", "tripod", "qmath", "dynamics", "metrics", "oracles")

# Called per RHS evaluation or per step: aggregate counts and timers only.
HOT = frozenset(
    {
        "controls.evaluate",
        "tripod.hamiltonian",
        "tripod.dressed_frame_hamiltonian",
        "tripod.dressed_frame_fields",
        "tripod.s_nu",
        "qmath.hermitize",
        "qmath.max_abs",
        "dynamics.hamiltonian_superoperator",
        "dynamics.dissipator_superoperator",
        "dynamics.rhs",
        "oracles.rhs",
    }
)

CLI_RUNS = (
    "cli.run_gate_time_error_sweep",
    "cli.run_noise_map_sweep",
    "cli.run_contour_search",
    "cli.export_pulses",
    "cli.run_oracle_compare",
)


def package_modules() -> list:
    return [importlib.import_module("tripod_sta")] + [
        importlib.import_module(f"tripod_sta.{layer}") for layer in LAYERS
    ]


class LayerTracer:
    """Counters, timers and spans of one traced sweep (one run id)."""

    def __init__(self, run_id: int, t0: float):
        self.run_id = run_id
        self.t0 = t0
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.sums: defaultdict = defaultdict(float)
        self.maxima: dict = {}
        self.minima: dict = {}
        self._stack: list[list] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, before=None, after=None):
        stack, spans, calls = self._stack, self.spans, self.calls
        total, self_time = self.total, self.self_time
        t0, run_id, clock = self.t0, self.run_id, time.perf_counter
        with_span = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame = [time spent in wrapped children, span index for children]
            frame = [0.0, parent[1] if parent else None]
            if with_span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, frame[1], run_id])
                frame[1] = idx
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if with_span:
                    spans[idx][1] = start - t0
                    spans[idx][2] = start + elapsed - t0
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _record_max(self, key: str, value) -> None:
        if value is not None:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def _record_min(self, key: str, value) -> None:
        if value is not None:
            self.minima[key] = min(self.minima.get(key, value), value)

    def _ode_before(self, args, kwargs):
        rhs = args[0] if args else kwargs["rhs"]
        y0 = args[1] if len(args) > 1 else kwargs["y0"]
        self.sums["qmath.state_elems"] += getattr(y0, "size", 1)
        # The RHS belongs to the layer that defined it (dynamics or oracles).
        layer = rhs.__module__.rsplit(".", 1)[-1]
        wrapped = self._wrap(rhs, f"{layer}.rhs")
        if args:
            return (wrapped,) + tuple(args[1:]), kwargs
        return args, {**kwargs, "rhs": wrapped}

    def _ode_after(self, args, kwargs, res):
        self.sums["qmath.steps_accepted"] += res.steps_accepted
        self.sums["qmath.steps_rejected"] += res.steps_rejected

    def _unitary_after(self, args, kwargs, res):
        self._record_max("dynamics.unitarity_defect_max", res.unitarity_defect)

    def _density_after(self, args, kwargs, results):
        for res in results if isinstance(results, list) else [results]:
            self._record_max("dynamics.trace_defect_max", res.trace_defect)
            self._record_min("dynamics.min_eigenvalue_min", res.min_eigenvalue)

    def _batch_before(self, args, kwargs):
        rho0s = args[3] if len(args) > 3 else kwargs["rho0s"]
        self.sums["dynamics.batch_states"] += len(rho0s)
        return args, kwargs

    def _energy_cost_after(self, args, kwargs, res):
        if any(frame_name == "controls.cost_threshold_time" for frame_name in self._active_spans()):
            self.sums["controls.threshold.cost_evals"] += 1

    def _active_spans(self):
        idx = self._stack[-1][1] if self._stack else None
        while idx is not None:
            yield self.spans[idx][0]
            idx = self.spans[idx][3]

    def _run_tasks_before(self, args, kwargs):
        tasks = args[1] if len(args) > 1 else kwargs["tasks"]
        self.sums["cli.tasks"] += len(tasks)
        return args, kwargs

    def _hooks(self) -> dict:
        return {
            "qmath.ode_solve": (self._ode_before, self._ode_after),
            "dynamics.propagate_unitary": (None, self._unitary_after),
            "dynamics.propagate_lindblad": (None, self._density_after),
            "dynamics.propagate_lindblad_batch": (self._batch_before, self._density_after),
            "controls.energy_cost": (None, self._energy_cost_after),
            "cli._run_tasks": (self._run_tasks_before, None),
        }

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site of every traced function; restore on exit."""
        modules = package_modules()
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                public = not attr.startswith("_") or attr == "_run_tasks"
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and public:
                    name = f"{layer}.{attr}"
                    before, after = hooks.get(name, (None, None))
                    wrappers[id(value)] = (value, self._wrap(value, name, before, after))
        patched = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrappers[id(value)][1])
            envelope_set = importlib.import_module("tripod_sta.controls").EnvelopeSet
            evaluate = envelope_set.evaluate
            envelope_set.evaluate = self._wrap(evaluate, "controls.evaluate")
            patched.append((envelope_set, "evaluate", evaluate))
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def counts(self) -> dict:
        """Every count this sweep made; identical inputs must repeat them exactly."""
        counts = dict(self.calls)
        for key in ("qmath.steps_accepted", "qmath.steps_rejected", "controls.threshold.cost_evals"):
            counts[key] = self.sums[key]
        return counts

    def metrics(self) -> dict[str, float]:
        calls, total, sums = self.calls, self.total, self.sums
        ode_calls = calls["qmath.ode_solve"]
        accepted, rejected = sums["qmath.steps_accepted"], sums["qmath.steps_rejected"]
        rhs_evals = calls["dynamics.rhs"] + calls["oracles.rhs"]
        rhs_s = total["dynamics.rhs"] + total["oracles.rhs"]
        batches = calls["dynamics.propagate_lindblad_batch"]
        ham = calls["tripod.hamiltonian"]
        m = {
            "qmath.ode_solve.calls": ode_calls,
            "qmath.ode_solve_s": total["qmath.ode_solve"],
            "qmath.steps_accepted": accepted,
            "qmath.steps_rejected": rejected,
            "qmath.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
            "qmath.rhs_evals": rhs_evals,
            "qmath.rhs_s": rhs_s,
            "qmath.stepper_s": total["qmath.ode_solve"] - rhs_s,
            "qmath.state_elems": sums["qmath.state_elems"] / ode_calls if ode_calls else 0.0,
            "qmath.expm.calls": calls["qmath.expm_hermitian_generator"],
            "tripod.hamiltonian.calls": ham,
            "tripod.hamiltonian_us": 1e6 * total["tripod.hamiltonian"] / ham if ham else 0.0,
            "tripod.gates_s": total["tripod.ideal_gate"] + total["tripod.satd_gate"],
            "controls.make_envelopes.calls": calls["controls.make_envelopes"],
            "controls.evaluate.calls": calls["controls.evaluate"],
            "controls.energy_cost.calls": calls["controls.energy_cost"],
            "controls.energy_cost_s": total["controls.energy_cost"],
            "controls.threshold_s": total["controls.amplitude_threshold_time"]
            + total["controls.cost_threshold_time"],
            "controls.threshold.cost_evals": sums["controls.threshold.cost_evals"],
            "dynamics.propagate_unitary.calls": calls["dynamics.propagate_unitary"],
            "dynamics.propagate_unitary_s": total["dynamics.propagate_unitary"],
            "dynamics.lindblad_batch.calls": batches,
            "dynamics.lindblad_batch_s": total["dynamics.propagate_lindblad_batch"],
            "dynamics.batch_states": sums["dynamics.batch_states"] / batches if batches else 0.0,
            "dynamics.unitarity_defect_max": self.maxima.get("dynamics.unitarity_defect_max", 0.0),
            "dynamics.trace_defect_max": self.maxima.get("dynamics.trace_defect_max", 0.0),
            "dynamics.min_eigenvalue_min": self.minima.get("dynamics.min_eigenvalue_min", 0.0),
            "metrics.map_fidelity.calls": calls["metrics.map_fidelity"],
            "metrics.map_fidelity_s": total["metrics.map_fidelity"],
            "metrics.uncertainty_avg.calls": calls["metrics.map_fidelity_uncertainty_avg"],
            "metrics.uncertainty_avg_s": total["metrics.map_fidelity_uncertainty_avg"],
            "oracles.magnus_full_gate.calls": calls["oracles.magnus_full_gate"],
            "oracles.magnus_full_gate_s": total["oracles.magnus_full_gate"],
            "oracles.oracle_b.calls": calls["oracles.oracle_b_map_fidelity"],
            "oracles.oracle_b_s": total["oracles.oracle_b_map_fidelity"],
            "cli.load_spec_s": total["cli.load_spec"],
            "cli.run_s": sum(total[name] for name in CLI_RUNS),
            "cli.write_s": self.self_time["cli.main"],
            "cli.tasks": sums["cli.tasks"],
        }
        for layer, seconds in self.layer_self_time().items():
            m[f"{layer}.self_s"] = seconds
        m["trace.spans"] = len(self.spans)
        return m
