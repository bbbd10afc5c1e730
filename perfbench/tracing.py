"""Span recording from outside the program, for the traced runs.

A traced run installs wrappers at the names the calling modules bind
(``repro.algorithms.base.coalesce_slen``, not
``repro.batching.coalesce.coalesce_slen``), so each call into a layer
records one span: name, start, end, parent span and the id of the root
span it ran under (one query, one settle or one read).  Spans are kept in
memory and written out when the run ends.  Untraced runs never import
this module's wrappers, so end-to-end numbers carry no tracing cost.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

def _query_stats(result) -> dict:
    return result.stats.as_dict()


#: ``(module, attribute path, span name[, collector])`` for the engine's
#: layers.  The service runs the same engine, so these are installed in
#: every workload.
ENGINE_TARGETS: tuple[tuple, ...] = (
    ("repro.algorithms.base", "GPNMAlgorithm.subsequent_query", "algorithms.query", _query_stats),
    ("repro.algorithms.base", "update_slen", "spl.maintain"),
    ("repro.algorithms.base", "coalesce_slen", "spl.maintain"),
    ("repro.algorithms.base", "coalesce_slen_partitioned", "spl.maintain"),
    ("repro.algorithms.base", "plan_batch", "batching.plan"),
    ("repro.algorithms.base", "compile_batch", "batching.compile"),
    ("repro.algorithms.ua_gpnm", "detect_all", "elimination.detect"),
    ("repro.elimination.eh_tree", "EHTree.build", "elimination.detect"),
    ("repro.algorithms.ua_gpnm", "candidate_set", "matching.candidates"),
    ("repro.algorithms.base", "amend_match", "matching.amend"),
)

#: The streaming service's own layers.
SERVICE_TARGETS: tuple[tuple, ...] = (
    ("repro.service.service", "StreamingUpdateService._execute_settle", "service.settle"),
    ("repro.service.service", "StreamingUpdateService._settled_snapshot", "versioning.publish"),
    ("repro.service.service", "plan_batch", "batching.plan"),
    ("repro.service.service", "amend_match", "matching.amend"),
    ("repro.service.service", "top_k_matches", "matching.topk"),
    ("repro.service.subscriptions", "top_k_matches", "matching.topk"),
    ("repro.service.journal", "GraphJournal.append_delta", "journal.append"),
    ("repro.service.journal", "GraphJournal.checkpoint", "journal.checkpoint"),
    ("repro.service.journal", "GraphJournal.compact", "journal.compact"),
)


class Tracer:
    """In-memory span recorder; safe to call from several threads.

    ``enabled`` switches recording off without removing the wrappers
    (the serve_subs server toggles it to measure tracing overhead).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent, root]`` per span, in start order.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        #: Values pulled from return values by a target's collector
        #: (e.g. each query's ``QueryStats``), keyed by span name.
        self.observations: dict[str, list] = defaultdict(list)

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, func, collect=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter(), None, parent, -1]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
                record[4] = index if parent < 0 else tracer.spans[parent][4]
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if collect is not None:
                tracer.observations[name].append(collect(result))
            return result

        return traced

    # -- installation -----------------------------------------------------
    def install(self, targets) -> None:
        """Wrap every ``(module, attribute path, span name[, collector])``
        target; a collector maps the call's return value to a JSON-able
        observation kept under the span name."""
        for module_name, path, name, *collector in targets:
            collect = collector[0] if collector else None
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__, collect))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, collect))
            else:
                wrapped = self.wrap(name, raw, collect)
            self._installed.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    # -- output -----------------------------------------------------------
    def finished(self) -> list:
        """Spans as ``(name, start, end, parent, root)`` tuples indexed by
        span id; a span still open is ``None``."""
        with self._lock:
            return [tuple(span) if span[2] is not None else None for span in self.spans]

    def dump(self, path: Path) -> None:
        """Write spans and observations as one JSON document.

        A span that never ended (the process stopped mid-call) is
        written as ``null`` so parent indices stay valid.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = [span if span[2] is not None else None for span in self.spans]
            doc = {"spans": spans, "observations": dict(self.observations)}
        path.write_text(json.dumps(doc), encoding="utf-8")


def load(path: Path) -> tuple[list, dict]:
    """Read a :meth:`Tracer.dump` file: ``(spans, observations)``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    spans = [tuple(span) if span is not None else None for span in doc["spans"]]
    return spans, doc["observations"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    ``spans`` is indexed by span id (``None`` slots allowed); a child is
    a span whose ``parent`` is the index.  Children are clipped to their
    parent's interval before the union is taken.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        if span is None:
            result.append(0.0)
            continue
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def summarize(spans) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Inclusive time of nested same-name spans would double count, so only
    the outermost span of a name contributes to ``total_s``.
    """
    selfs = self_times(spans)
    summary: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, _root = span
        entry = summary[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        ancestor = parent
        nested = False
        while ancestor >= 0 and spans[ancestor] is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            entry["total_s"] += end - start
    return dict(summary)
