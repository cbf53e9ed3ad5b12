"""Span recorder for the traced benchmark run.

While a :class:`Tracer` is active, every public module-level function of the
nine ``bnchains`` modules is replaced, in every library namespace that holds
it, by a wrapper that records one span: name, start, end and the enclosing
span.  Calls the library makes internally (``run_suite``, ``cli.main``) go
through those namespaces, so they are broken down too.  The originals are put
back on exit; the library's files are not touched.

A hook on every frame was tried first: ``sys.settrace``, filtered to the same
functions, made a pass of ``tropical_rank`` over the 387 g = 7 tableau
divisors 4.4 times slower, because every ``Fraction`` operation is a Python
call that reaches the hook.
``sys.setprofile`` also fires on every builtin call, so it costs more still.
The wrappers cost one extra call per public function only.

A generator such as ``enumerate_tableaux`` gives one span per resume, so its
busy time excludes the time its consumer spends between items.  Spans are kept
in flat arrays and aggregated after the pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

MODULES = (
    "tableaux",
    "elliptic",
    "effective",
    "serialize",
    "render",
    "cli",
    "tropical",
    "oracle",
    "verify",
)

ROOT = "bench.pass"


def public_functions(package) -> dict:
    """Map every public module-level function of the library to its span name."""
    names = {}
    for short in MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                names[obj] = f"{short}.{attr}"
    return names


class Tracer:
    """Records spans while active; ``summary`` aggregates them per name and per module."""

    def __init__(self, package):
        self._package = package
        self._functions = public_functions(package)
        self.labels = [ROOT, *sorted(set(self._functions.values()))]
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []
        self.bn_rank_vertices = 0
        self.enumerated = 0

    def _open(self, label: int) -> None:
        stack = self._stack
        self.span_label.append(label)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(len(self.span_start))
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        now = time.perf_counter()
        self.span_end[self._stack.pop()] = now

    def _wrap(self, fn, label: int):
        opened, close = self._open, self._close
        name = self.labels[label]
        if inspect.isgeneratorfunction(fn):
            counts = name == "tableaux.enumerate_tableaux"

            @functools.wraps(fn)
            def resume_spans(*args, **kwargs):
                stream = fn(*args, **kwargs)
                while True:
                    opened(label)
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        close()
                    if counts:
                        self.enumerated += 1
                    yield item

            return resume_spans

        if name == "oracle.bn_rank":
            # the size of the rank search is the vertex count of the graph it is given
            @functools.wraps(fn)
            def bn_rank_span(graph, *args, **kwargs):
                self.bn_rank_vertices += graph.vertex_count
                opened(label)
                try:
                    return fn(graph, *args, **kwargs)
                finally:
                    close()

            return bn_rank_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            opened(label)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return span

    def __enter__(self):
        label_id = {label: i for i, label in enumerate(self.labels)}
        wrappers = {fn: self._wrap(fn, label_id[name]) for fn, name in self._functions.items()}
        prefix = self._package.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name != prefix and not module_name.startswith(prefix + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((namespace, attr, value))
                    namespace[attr] = wrappers[value]
        self._open(0)
        return self

    def __exit__(self, *exc):
        self._close()
        for namespace, attr, value in self._patched:
            namespace[attr] = value
        self._patched.clear()
        return False

    @property
    def wall_s(self) -> float:
        return self.span_end[0] - self.span_start[0]

    def summary(self) -> dict:
        """Per-label calls, busy and self seconds, and per-module busy and self seconds.

        Busy time counts a span only when no enclosing span has the same label
        (or, for a module, the same module), so nested calls are not counted
        twice.  Self time is a span's duration minus that of its child spans;
        the self times of all spans add up to the root span's duration.
        """
        n_labels = len(self.labels)
        module_of = [label.rsplit(".", 1)[0] for label in self.labels]
        calls = [0] * n_labels
        busy = [0.0] * n_labels
        self_s = [0.0] * n_labels
        module_busy: dict[str, float] = {}
        module_self: dict[str, float] = {}
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child_time = [0.0] * len(durations)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += durations[i]
        # labels and modules of the enclosing spans, kept along a preorder walk
        path: list[int] = []
        active_labels: list[int] = []
        active_modules: list[str] = []
        for i, label in enumerate(self.span_label):
            parent = self.span_parent[i]
            while path and path[-1] != parent:
                path.pop()
                active_labels.pop()
                active_modules.pop()
            module = module_of[label]
            own = durations[i] - child_time[i]
            calls[label] += 1
            self_s[label] += own
            module_self[module] = module_self.get(module, 0.0) + own
            if label not in active_labels:
                busy[label] += durations[i]
            if module not in active_modules:
                module_busy[module] = module_busy.get(module, 0.0) + durations[i]
            path.append(i)
            active_labels.append(label)
            active_modules.append(module)
        return {
            "labels": {
                self.labels[i]: {"calls": calls[i], "busy_s": busy[i], "self_s": self_s[i]}
                for i in range(n_labels)
            },
            "module_busy_s": module_busy,
            "module_self_s": module_self,
            "spans": len(durations),
            "bn_rank_vertices": self.bn_rank_vertices,
            "enumerated": self.enumerated,
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line: id, name, start, end, parent.

        Times are seconds from the start of the root span; the root's parent is -1.
        """
        origin = self.span_start[0]
        labels = self.labels
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, (label, start, end, parent) in enumerate(
                zip(self.span_label, self.span_start, self.span_end, self.span_parent)
            ):
                fh.write(
                    f"{i}\t{labels[label]}\t{start - origin:.7f}\t{end - origin:.7f}\t{parent}\n"
                )
