"""Span recorder for the traced benchmark run.

Every traced function is wrapped and the wrapper is bound under each name
by which a module of the package (or the benchmark) reaches it. Modules
import by name, so ``phasematch.oracle.gram_decompose`` is a binding of its
own that must be patched next to ``phasematch.linalg.gram_decompose``.
Spans are aggregated in memory as they close: per span name the call count,
the inclusive time (busy) and the time not covered by child spans (self),
plus work counters read off the arguments or the result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _steps(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 1, "k_max")}


def _evolve_work(args, kwargs, result):
    dim = _arg(args, kwargs, 1, "cfg").dim
    k_max = _arg(args, kwargs, 2, "k_max")
    # One dense complex matvec per step: N^2 multiply-adds of 8 real flops.
    return {"steps": k_max, "flops": 8 * dim * dim * k_max}


def _build_q_work(args, kwargs, result):
    dim = _arg(args, kwargs, 0, "cfg").dim
    # Three dense complex N x N products of 8 N^3 real flops each.
    return {"flops": 24 * dim**3}


def _rendered_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


#: (module under phasematch, attribute, span name, work counter).
#: An attribute of the form ``Class.method`` is patched on the class only.
TARGETS = (
    ("engine2d", "iterate2", "engine2d.iterate2", _steps),
    ("engine2d", "sweep_max", "engine2d.sweep_max", None),
    ("engine2d", "phase_condition", "engine2d.phase_condition", None),
    ("engine2d", "present_coeffs", "engine2d.present_coeffs", None),
    ("engine2d", "grover_coeffs", "engine2d.grover_coeffs", None),
    ("engine2d", "long_coeffs", "engine2d.long_coeffs", None),
    ("engine2d", "hoyer_coeffs", "engine2d.hoyer_coeffs", None),
    ("engine2d", "exact_b", "engine2d.exact_b", None),
    ("engine2d", "exact_a", "engine2d.exact_a", None),
    ("engine2d", "approx_b", "engine2d.approx_b", None),
    ("engine2d", "closed_form_magnitude", "engine2d.closed_form_magnitude", None),
    ("engine4d", "iterate4", "engine4d.iterate4", _steps),
    ("engine4d", "approx4", "engine4d.approx4", None),
    ("engine4d", "four_dim_coeffs", "engine4d.four_dim_coeffs", None),
    ("oracle", "unitary_with_overlap", "oracle.unitary_with_overlap", None),
    ("oracle", "OracleConfig.__init__", "oracle.config", None),
    ("oracle", "build_q", "oracle.build_q", _build_q_work),
    ("oracle", "evolve", "oracle.evolve", _evolve_work),
    ("oracle", "target_amplitude", "oracle.target_amplitude", None),
    ("linalg", "gram_decompose", "linalg.gram_decompose", None),
    ("linalg", "random_unitary", "linalg.random_unitary", None),
    ("linalg", "is_unitary", "linalg.is_unitary", None),
    ("pairs", "random_commuting_unitary", "pairs.random_commuting_unitary", None),
    ("pairs", "companion", "pairs.companion", None),
    ("pairs", "is_block_symmetric", "pairs.is_block_symmetric", None),
    ("pairs", "hermitian_iff_involution", "pairs.hermitian_iff_involution", None),
    ("rotations", "build", "rotations.build", None),
    ("reporting", "make_report", "reporting.make_report", None),
    ("reporting", "render", "reporting.render", _rendered_bytes),
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "run_verify", "cli.run_verify", None),
    ("cli", "run_construct", "cli.run_construct", None),
)


_COEFFS = ("engine2d.present_coeffs", "engine2d.grover_coeffs",
            "engine2d.long_coeffs", "engine2d.hoyer_coeffs")
_SWEEP, _VERIFY, _ORACLE, _LONG = "sweep", "verify", "oracle-scale", "long-trajectory"

#: Per-layer metrics: (name, unit, span field, spans summed, workloads on
#: which the spans must record at least one call). Values are per cycle,
#: except ``calls_per_item``. The workloads are those whose end-to-end
#: numbers the metric should move (see bench/README.md).
LAYER_METRICS = (
    ("engine2d.iterate2.calls", "count", "calls", ("engine2d.iterate2",), (_SWEEP, _LONG)),
    ("engine2d.iterate2.steps", "count", "steps", ("engine2d.iterate2",), (_SWEEP, _LONG)),
    ("engine2d.iterate2.busy_s", "s", "busy_s", ("engine2d.iterate2",), (_SWEEP, _LONG)),
    ("engine2d.sweep_max.self_s", "s", "self_s", ("engine2d.sweep_max",), (_SWEEP,)),
    ("engine2d.coeffs.busy_s", "s", "busy_s", _COEFFS, (_SWEEP,)),
    ("engine2d.phase_condition.busy_s", "s", "busy_s", ("engine2d.phase_condition",), (_SWEEP,)),
    ("engine2d.exact_b.busy_s", "s", "busy_s", ("engine2d.exact_b",), (_LONG,)),
    ("engine2d.exact_a.busy_s", "s", "busy_s", ("engine2d.exact_a",), (_LONG,)),
    ("engine2d.exact.calls", "count", "calls", ("engine2d.exact_b", "engine2d.exact_a"), (_LONG,)),
    ("engine2d.approx_b.busy_s", "s", "busy_s", ("engine2d.approx_b",), (_LONG,)),
    ("engine2d.closed_form_magnitude.busy_s", "s", "busy_s",
     ("engine2d.closed_form_magnitude",), (_LONG,)),
    ("engine4d.iterate4.calls", "count", "calls", ("engine4d.iterate4",), (_LONG,)),
    ("engine4d.iterate4.steps", "count", "steps", ("engine4d.iterate4",), (_LONG,)),
    ("engine4d.iterate4.busy_s", "s", "busy_s", ("engine4d.iterate4",), (_LONG,)),
    ("engine4d.approx4.busy_s", "s", "busy_s", ("engine4d.approx4",), (_LONG,)),
    ("engine4d.four_dim_coeffs.busy_s", "s", "busy_s", ("engine4d.four_dim_coeffs",), (_VERIFY,)),
    ("linalg.gram_decompose.calls", "count", "calls", ("linalg.gram_decompose",), (_VERIFY,)),
    ("linalg.gram_decompose.busy_s", "s", "busy_s", ("linalg.gram_decompose",), (_VERIFY,)),
    ("oracle.evolve.steps", "count", "steps", ("oracle.evolve",), (_VERIFY,)),
    ("oracle.evolve.self_s", "s", "self_s", ("oracle.evolve",), (_VERIFY,)),
    ("oracle.target_amplitude.busy_s", "s", "busy_s", ("oracle.target_amplitude",), (_VERIFY,)),
    ("cli.run_verify.self_s", "s", "self_s", ("cli.run_verify",), (_VERIFY,)),
    ("linalg.random_unitary.busy_s", "s", "busy_s", ("linalg.random_unitary",), (_ORACLE,)),
    ("oracle.unitary_with_overlap.self_s", "s", "self_s",
     ("oracle.unitary_with_overlap",), (_ORACLE,)),
    ("oracle.config.busy_s", "s", "busy_s", ("oracle.config",), (_ORACLE,)),
    ("oracle.build_q.calls", "count", "calls", ("oracle.build_q",), (_ORACLE,)),
    ("oracle.build_q.busy_s", "s", "busy_s", ("oracle.build_q",), (_ORACLE,)),
    ("rotations.build.calls", "count", "calls", ("rotations.build",), (_ORACLE,)),
    ("rotations.build.busy_s", "s", "busy_s", ("rotations.build",), (_ORACLE,)),
    ("oracle.build_q.flops", "flop", "flops", ("oracle.build_q",), (_ORACLE,)),
    ("oracle.evolve.flops", "flop", "flops", ("oracle.evolve",), (_ORACLE,)),
    ("linalg.is_unitary.calls", "count", "calls", ("linalg.is_unitary",), (_ORACLE,)),
    ("linalg.is_unitary.busy_s", "s", "busy_s", ("linalg.is_unitary",), (_ORACLE,)),
    ("linalg.is_unitary.calls_per_item", "calls/item", "calls_per_item",
     ("linalg.is_unitary",), (_ORACLE,)),
    ("pairs.random_commuting_unitary.busy_s", "s", "busy_s",
     ("pairs.random_commuting_unitary",), (_ORACLE, _VERIFY)),
    ("pairs.companion.busy_s", "s", "busy_s", ("pairs.companion",), (_ORACLE, _VERIFY)),
    ("pairs.is_block_symmetric.busy_s", "s", "busy_s",
     ("pairs.is_block_symmetric",), (_ORACLE, _VERIFY)),
    ("pairs.hermitian_iff_involution.busy_s", "s", "busy_s",
     ("pairs.hermitian_iff_involution",), (_ORACLE, _VERIFY)),
    ("cli.run_construct.self_s", "s", "self_s", ("cli.run_construct",), (_ORACLE,)),
    ("reporting.make_report.busy_s", "s", "busy_s", ("reporting.make_report",), (_SWEEP,)),
    ("reporting.render.busy_s", "s", "busy_s", ("reporting.render",), (_SWEEP,)),
    ("reporting.bytes", "B", "bytes", ("reporting.render",), (_SWEEP,)),
    ("cli.run_sweep.self_s", "s", "self_s", ("cli.run_sweep",), (_SWEEP,)),
)


def layer_metrics(spans, workload, cycles, items, scale):
    """Per-layer metric values, and the metrics that recorded no call on ``workload``.

    ``spans`` covers ``cycles`` whole cycles of ``items`` items in all.
    Times are multiplied by the host-speed ``scale`` (see calibrate.py).
    """
    values, silent = {}, []
    for name, unit, field, names, workloads in LAYER_METRICS:
        stats = [spans.get(n, {}) for n in names]
        calls = sum(s.get("calls", 0) for s in stats)
        if field == "calls_per_item":
            value = calls / items
        else:
            value = sum(s.get(field, 0) for s in stats) / cycles
        if unit == "s":
            value *= scale
        values[name] = {"value": value, "unit": unit}
        if workload in workloads and calls == 0:
            silent.append(name)
    return values, silent


class Tracer:
    """Install span-recording wrappers, aggregate the spans, restore the originals."""

    def __init__(self):
        self.spans = {}
        self._open = []
        self._patches = []

    def _wrap(self, name, func, work):
        stats = self.spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats["calls"] += 1
                stats["busy_s"] += duration
                stats["self_s"] += duration - covered
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + value
            return result

        return traced

    def install(self):
        """Patch every target wherever a loaded module of the package binds it."""
        modules = [m for n, m in sys.modules.items() if n == "phasematch" or n.startswith("phasematch.")]
        for module_name, attr, span, work in TARGETS:
            owner = importlib.import_module(f"phasematch.{module_name}")
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(span, original, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, work)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def restore(self):
        while self._patches:
            target, binding, original = self._patches.pop()
            setattr(target, binding, original)
