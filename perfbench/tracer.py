"""Spans and call counts around the package's public functions.

The tracer replaces each traced function at its module attributes (every
`k3gonal` module that binds the same object, since `from .x import f` makes
copies) and each traced method on its class, records one span per call, and
puts the originals back on `uninstall`.  Nothing under `src/` changes.

A span is (id, parent id, name, command id, start, end).  A layer's self time
is its span's duration minus the time its direct child spans cover; calls
nest strictly in one thread, so the children never overlap.

`exactmath` is not traced: its helpers are single integer operations, and a
wrapper would cost more than the work it measures.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import k3gonal.cli

# (module, attribute path) -> span name; a class path wraps that method
TARGETS = {
    ("pencil", "random_pencil"): "pencil.random_pencil",
    ("pencil", "random_coprime_pencil"): "pencil.random_coprime_pencil",
    ("pencil", "wedge_curve"): "pencil.wedge_curve",
    ("pencil", "diagonal_restriction"): "pencil.diagonal_restriction",
    ("pencil", "wronskian"): "pencil.wronskian",
    ("pencil", "proportional"): "pencil.proportional",
    ("pencil", "random_smooth_conic"): "pencil.random_smooth_conic",
    ("pencil", "conic_intersection"): "pencil.conic_intersection",
    ("pencil", "SymPlaneCurve.pullback"): "pencil.SymPlaneCurve.pullback",
    ("pencil", "distinct_root_count"): "pencil.distinct_root_count",
    ("pencil", "is_squarefree"): "pencil.is_squarefree",
    ("pencil", "BinaryForm.__mul__"): "pencil.BinaryForm.__mul__",
    ("pencil", "verification_suite"): "pencil.verification_suite",
    ("hilbert", "optimal_class"): "hilbert.optimal_class",
    ("hilbert", "tau"): "hilbert.tau",
    ("hilbert", "extremal_ray_status"): "hilbert.extremal_ray_status",
    ("hilbert", "lagrangian_report"): "hilbert.lagrangian_report",
    ("hilbert", "minimal_q_family"): "hilbert.minimal_q_family",
    ("hilbert", "gonality_class"): "hilbert.gonality_class",
    ("hilbert", "q_case"): "hilbert.q_case",
    ("hilbert", "attained_q_values"): "hilbert.attained_q_values",
    ("gonality", "decompose"): "gonality.decompose",
    ("gonality", "delta0"): "gonality.delta0",
    ("gonality", "GonalityCase.__init__"): "gonality.GonalityCase",
    ("brillnoether", "necessary_condition"): "brillnoether.necessary_condition",
    ("chains", "enumerate_partitions"): "chains.enumerate_partitions",
    ("chains", "ChainPartition.to_payload"): "chains.ChainPartition.to_payload",
    ("chains", "witness"): "chains.witness",
    ("chains", "increment"): "chains.increment",
    ("cli", "main"): "cli.main",
    ("cli", "_emit"): "cli._emit",
}
# every leaf command's callback is traced under one name, so that the self
# time of cli.main is parse, dispatch and exit mapping only
COMMAND_SPAN = "cli.command"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "k3gonal" or name.startswith("k3gonal."))]


def _leaf_commands(group):
    for command in group.commands.values():
        if hasattr(command, "commands"):
            yield from _leaf_commands(command)
        else:
            yield command


def _bindings():
    """Every (owner, attribute, original, span name) the tracer replaces."""
    out = []
    modules = _package_modules()
    for (module, path), name in TARGETS.items():
        owner = sys.modules[f"k3gonal.{module}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        if classes:
            out.append((owner, attr, original, name))
            continue
        for m in modules:
            for key, value in vars(m).items():
                if value is original:
                    out.append((m, key, original, name))
    for command in _leaf_commands(k3gonal.cli.cli):
        out.append((command, "callback", command.callback, COMMAND_SPAN))
    return out


# captured at import, before any wrapper exists
ORIGINALS = _bindings()


def untraced() -> bool:
    """True iff every traced attribute holds its original object."""
    return all(getattr(owner, attr) is original for owner, attr, original, _ in ORIGINALS)


class Tracer:
    """Records spans while installed; aggregates calls and self time per name."""

    def __init__(self):
        self.names: list[str] = sorted({name for *_, name in ORIGINALS})
        self.calls = defaultdict(int)       # (name index, command id) -> calls
        self.self_s = defaultdict(float)    # (name index, command id) -> seconds
        self.spans: list[tuple] = []
        self.command_id = -1
        self._stack: list[list] = []
        self._next_id = 0

    def _wrap(self, index: int, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]  # child time covered, own id
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                key = (index, self.command_id)
                self.calls[key] += 1
                self.self_s[key] += duration - frame[0]
                spans.append((span_id, parent[1] if parent else -1, index,
                              self.command_id, start, end))

        return wrapper

    def install(self) -> None:
        if not untraced():
            raise RuntimeError("a tracer is already installed")
        index = {name: i for i, name in enumerate(self.names)}
        wrappers = {}
        for owner, attr, original, name in ORIGINALS:
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(index[name], original)
            setattr(owner, attr, wrappers[key])

    @staticmethod
    def uninstall() -> None:
        for owner, attr, original, _ in ORIGINALS:
            setattr(owner, attr, original)
        if not untraced():
            raise RuntimeError("tracer wrappers survived uninstall")

    def totals(self, scales, commands=None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), over all or the given command ids.

        Self seconds are scaled by `scales[command id]`, the command's factor
        from wall to reference seconds.
        """
        out = {name: [0, 0.0] for name in self.names}
        for (index, cid), calls in self.calls.items():
            if commands is None or cid in commands:
                out[self.names[index]][0] += calls
                out[self.names[index]][1] += self.self_s[(index, cid)] * scales[cid]
        return {name: (c, s) for name, (c, s) in out.items()}

    def write(self, path, commands, scales) -> None:
        """Spans as gzip JSON lines: a header, then one array per span.

        Span times are wall seconds; `scales` converts each command's to
        reference seconds.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            header = {
                "names": self.names,
                "commands": [" ".join(c.argv) for c in commands],
                "scales": scales,
                "fields": ["id", "parent", "name", "command", "start_s", "end_s"],
            }
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
