"""Per-layer tracing, installed at run time from the benchmark's own files.

``Tracer.install`` rebinds the named public functions and methods of
``lossbell`` to timing wrappers (in every ``lossbell`` module that holds a
reference to them) and counts calls to the ``Quad`` and ``Graph``
constructors.  ``uninstall`` restores the originals; an untraced run never
installs anything.

A span is one call through a wrapper: its name, duration and the span that
caused it.  Spans are aggregated in memory by (name, parent) as they close
and written out only when the run ends.  Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes wrap methods
SPANS = (
    ("lossbell.cli", "main", "cli.main"),
    ("lossbell.families", "generate", "families.generate"),
    ("lossbell.graphs", "Graph.induced_subgraph", "graphs.induced_subgraph"),
    ("lossbell.pauli", "stabilizer", "pauli.stabilizer"),
    ("lossbell.pauli", "PauliString.embed", "pauli.PauliString.embed"),
    ("lossbell.bell", "bell_stabilizer_sum", "bell.bell_stabilizer_sum"),
    ("lossbell.loss", "wt_sets", "loss.wt_sets"),
    ("lossbell.loss", "expectation_after_loss", "loss.expectation_after_loss"),
    ("lossbell.loss", "violation_report", "loss.violation_report"),
    ("lossbell.loss", "loss_size_sweep", "loss.loss_size_sweep"),
    ("lossbell.loss", "max_tolerable_loss", "loss.max_tolerable_loss"),
    ("lossbell.loss", "critical_sets", "loss.critical_sets"),
    ("lossbell.loss", "induced_operator_expectation",
     "loss.induced_operator_expectation"),
    ("lossbell.loss", "mixture_expectation", "loss.mixture_expectation"),
    ("lossbell.loss", "single_loss_mixture_curve", "loss.single_loss_mixture_curve"),
    ("lossbell.oracle", "graph_state", "oracle.graph_state"),
    ("lossbell.oracle", "apply_pauli", "oracle.apply_pauli"),
    ("lossbell.oracle", "LossyState.pauli_expectation",
     "oracle.LossyState.pauli_expectation"),
)

# (module, class, counter name): constructor calls are counted, not timed
CONSTRUCTORS = (
    ("lossbell.quad", "Quad", "quad.Quad"),
    ("lossbell.graphs", "Graph", "graphs.Graph"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, int] = {}
        self.state_bytes = 0  # statevector bytes apply_pauli was handed
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, method, None)
                if original is not None:
                    self._patch(owner, method, self._span(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._span(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "lossbell" and not mod_name.startswith("lossbell."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for module_name, cls_name, name in CONSTRUCTORS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "__init__", self._counter(name, cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        measure_state = name == "oracle.apply_pauli"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if measure_state:
                tracer.state_bytes += len(args[0]) * 16  # complex128 amplitudes
            frame = [name, 0.0, 0]  # name, child seconds, child spans
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = None
                if stack:
                    caller = stack[-1]
                    caller[1] += elapsed
                    caller[2] += 1
                    parent = caller[0]
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1  # calls
                rec[1] += elapsed  # total seconds
                rec[2] += elapsed - frame[1]  # self seconds
                rec[3] += frame[2] == 0  # calls that made no traced call

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, init):
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(obj, *args, **kwargs):
            if tracer.active:
                counts[name] += 1
            init(obj, *args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self, name: str, parent: str | None = "*") -> tuple[int, float, float, int]:
        """(calls, total s, self s, calls without traced children) of a span,
        over every parent or under one parent."""
        out = [0, 0.0, 0.0, 0]
        for (span, caller), rec in self.spans.items():
            if span == name and (parent == "*" or caller == parent):
                for i in range(4):
                    out[i] += rec[i]
        return tuple(out)

    def table(self) -> str:
        lines = [f"{'span':<40} {'parent':<40} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for (name, parent), (calls, total, self_s, _) in sorted(
            self.spans.items(), key=lambda kv: -kv[1][2]
        ):
            lines.append(f"{name:<40} {parent or '-':<40} {calls:>9} "
                         f"{total:>9.4f} {self_s:>9.4f}")
        for name, count in sorted(self.counts.items()):
            lines.append(f"{name + ' constructed':<81} {count:>9}")
        return "\n".join(lines)
