"""Per-layer spans, recorded from outside the package.

The traced run wraps the public functions of each layer by assigning to
module and class attributes at runtime; no file of the package changes. A
span records its name, start, end and parent (the span open when it
started). Spans stay in memory, in flat typed columns, and are written out
when the benchmark ends. A layer's self time is the duration of its spans
minus the time their child spans cover. Counts are taken at the same
boundaries, so ratios are measured where the work happens.

A wrap target that does not exist is skipped and reported, so the tracer
keeps working when a later version of the package moves a function; the
metrics of a missing layer then read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import json
import time
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path

# span names
SEARCH = "engine.search"
REQUEST = "cli.request"
CHANGE = "engine.db.note_change"
RELAX = "engine.relax"
DB_SPANS = ("engine.db.lookup", "engine.db.add", "engine.db.mark_open", CHANGE)

# (module key, owner attribute or None, attribute, span name)
TARGETS = (
    ("engine", None, "select", "engine.select"),
    ("engine", None, "expand", "engine.expand"),
    ("engine", None, "f_update", RELAX),
    ("engine", None, "goal_condition", "engine.goal_check"),
    ("engine", None, "reconstruct_path", "engine.reconstruct"),
    ("engine", None, "bfs", SEARCH),
    ("engine", None, "ebfs", SEARCH),
    ("engine", "NodeDatabase", "lookup", "engine.db.lookup"),
    ("engine", "NodeDatabase", "add", "engine.db.add"),
    ("engine", "NodeDatabase", "mark_open", "engine.db.mark_open"),
    ("engine", "NodeDatabase", "note_distance_change", CHANGE),
    ("cli", None, "run_experiment", REQUEST),
    ("cli", None, "bfs", SEARCH),
    ("cli", None, "ebfs", SEARCH),
    ("cli", None, "on_solution_state", "nqueens.setup"),
    ("cli", None, "false_heuristic_state", "nqueens.setup"),
    ("cli", None, "validate_path", "model.validate_path"),
    ("model", None, "validate_path", "model.validate_path"),
    ("nqueens", "NQueensState", "__post_init__", "nqueens.state"),
    ("kernel", None, "safe_squares", "kernels.safe_squares"),
    ("kernel", None, "pairwise_safe", "kernels.pairwise_safe"),
)


class Recorder:
    """Spans in four parallel columns; span ``i`` is row ``i``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def truncate(self, size: int) -> None:
        """Drop the spans recorded after the first ``size`` ones."""
        for col in (self.name, self.parent, self.start, self.end):
            del col[size:]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording one span per call. ``observe(result)`` runs
        after the span closes, outside the measured interval."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def counter(self, key: str, test):
        """An ``observe`` hook counting the results that pass ``test``."""
        counts = self.counts

        def observe(result):
            if test(result):
                counts[key] += 1
        return observe

    def layer_totals(self, lo: int, hi: int) -> dict:
        """Per span name over rows lo..hi: calls, total and self seconds,
        plus the largest number of change spans under one relax span."""
        n = len(self.names)
        calls, total, child = [0] * n, [0] * n, [0] * n
        name = self.name
        change_id, relax_id = self._ids.get(CHANGE), self._ids.get(RELAX)
        cascades: Counter = Counter()
        rows = [islice(col, lo, hi) for col in (name, self.parent, self.start, self.end)]
        for nid, p, s, e in zip(*rows):
            d = e - s
            calls[nid] += 1
            total[nid] += d
            if p >= 0:
                child[name[p]] += d
                if nid == change_id and name[p] == relax_id:
                    cascades[p] += 1
        return {
            "calls": {self.names[i]: calls[i] for i in range(n)},
            "total_s": {self.names[i]: total[i] / 1e9 for i in range(n)},
            "self_s": {self.names[i]: (total[i] - child[i]) / 1e9 for i in range(n)},
            "cascade_max": max(cascades.values(), default=0),
        }

    def write(self, path: Path, requests: list) -> None:
        """A JSON header line, then the four columns as raw native arrays
        (name uint16, parent int32, start_ns int64, end_ns int64).
        ``requests`` lists each traced request's [first, end) row range."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "rows": len(self),
                  "columns": ["name:H", "parent:i", "start_ns:q", "end_ns:q"],
                  "requests": requests}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(f)


class Patcher:
    """Attribute assignments that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _counting_heapq(counts: Counter):
    """A stand-in for the engine's ``heapq`` that counts pushes and pops."""

    class CountingHeapq:
        def __getattr__(self, attr):
            return getattr(heapq, attr)

        @staticmethod
        def heappush(heap, item):
            counts["engine.frontier.push"] += 1
            heapq.heappush(heap, item)

        @staticmethod
        def heappop(heap):
            counts["engine.frontier.pop"] += 1
            return heapq.heappop(heap)

    return CountingHeapq()


class Tracer:
    """Installs the layer wraps on the imported package ``pkg`` (a
    namespace with its ``engine``, ``cli``, ``model``, ``nqueens`` and
    ``kernel`` modules) and turns the spans into per-layer metrics."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.rec = Recorder()
        self.patcher = Patcher()
        self.missing: list[str] = []

    def install(self) -> None:
        rec, pkg = self.rec, self.pkg
        for module_key, owner_name, attr, span in TARGETS:
            owner = getattr(pkg, module_key, None)
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(".".join(filter(None, (module_key, owner_name, attr))))
                continue
            observe = None
            if attr == "lookup":
                observe = rec.counter("engine.db.hit", lambda r: r is not None)
            elif attr == "select":
                observe = rec.counter("engine.select.found", lambda r: r is not None)
            self.patcher.set(owner, attr, rec.wrap(span, getattr(owner, attr), observe))
        engine = getattr(pkg, "engine", None)
        if engine is not None and hasattr(engine, "heapq"):
            self.patcher.set(engine, "heapq", _counting_heapq(rec.counts))
        cli = getattr(pkg, "cli", None)
        if cli is not None and callable(getattr(cli, "nqueens_rep", None)):
            build = rec.wrap("nqueens.setup", cli.nqueens_rep)

            def nqueens_rep(*args, **kwargs):
                return self.wrap_rep(build(*args, **kwargs), "nqueens")
            self.patcher.set(cli, "nqueens_rep", nqueens_rep)
        else:
            self.missing.append("cli.nqueens_rep")

    def uninstall(self) -> None:
        self.patcher.restore()

    def wrap_rep(self, rep, layer: str):
        """A copy of ``rep`` whose successor functions and predicates record
        ``<layer>.successor`` and ``<layer>.predicate`` spans."""
        rec = self.rec
        nonempty = rec.counter(f"{layer}.successor.useful", bool)
        changes = {
            "forward_fns": tuple(rec.wrap(f"{layer}.successor", f, nonempty)
                                 for f in rep.forward_fns),
            "initial": rec.wrap(f"{layer}.predicate", rep.initial),
            "goal": rec.wrap(f"{layer}.predicate", rep.goal),
        }
        return dataclasses.replace(rep, **changes)


def layer_metrics(t: dict, counts: Counter, untraced_search_s: float) -> dict:
    """The per-layer metrics of one traced request, from its span totals
    ``t`` and the counts it added."""
    calls, self_s, total_s = t["calls"], t["self_s"], t["total_s"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    search_s = total_s.get(SEARCH, 0.0)
    pushes = counts["engine.frontier.push"]
    lookups = c("engine.db.lookup")
    return {
        "trace.search_s": search_s,
        "engine.select.calls": c("engine.select"),
        "engine.select.self_s": s("engine.select"),
        "engine.frontier.pushes": pushes,
        "engine.frontier.stale_pops": counts["engine.frontier.pop"],
        "engine.frontier.useful_ratio": ratio(counts["engine.select.found"], pushes),
        "engine.expand.calls": c("engine.expand"),
        "engine.expand.self_s": s("engine.expand"),
        "engine.driver.self_s": s(SEARCH),
        "engine.relax.calls": c(RELAX),
        "engine.relax.self_s": s(RELAX),
        "engine.relax.changes": c(CHANGE),
        "engine.relax.cascade_max": t["cascade_max"],
        "engine.relax.useful_ratio": ratio(c(CHANGE), c(RELAX)),
        "engine.goal_check.calls": c("engine.goal_check"),
        "engine.goal_check.self_s": s("engine.goal_check"),
        "engine.goal_check.share": ratio(s("engine.goal_check"), search_s),
        "engine.db.lookups": lookups,
        "engine.db.adds": c("engine.db.add"),
        "engine.db.duplicate_ratio": ratio(counts["engine.db.hit"], lookups),
        "engine.db.self_s": sum(s(n) for n in DB_SPANS),
        "nqueens.successor.calls": c("nqueens.successor"),
        "nqueens.successor.self_s": s("nqueens.successor"),
        "nqueens.successor.useful_ratio": ratio(counts["nqueens.successor.useful"],
                                                c("nqueens.successor")),
        "nqueens.state.calls": c("nqueens.state"),
        "nqueens.state.self_s": s("nqueens.state"),
        "nqueens.predicate.self_s": s("nqueens.predicate"),
        "nqueens.setup_s": total_s.get("nqueens.setup", 0.0),
        "relay.successor.calls": c("relay.successor"),
        "relay.successor.self_s": s("relay.successor"),
        "relay.predicate.self_s": s("relay.predicate"),
        "kernels.safe_squares.calls": c("kernels.safe_squares"),
        "kernels.safe_squares.self_s": s("kernels.safe_squares"),
        "kernels.pairwise_safe.calls": c("kernels.pairwise_safe"),
        "kernels.pairwise_safe.self_s": s("kernels.pairwise_safe"),
        "model.validate_path.self_s": s("model.validate_path"),
        "cli.overhead_s": s(REQUEST),
        "trace.overhead_ratio": ratio(search_s, untraced_search_s),
        # the self times of every span inside the search add up to this
        "trace.coverage": ratio(search_s - s(SEARCH), search_s),
    }
