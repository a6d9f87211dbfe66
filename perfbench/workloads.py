"""The benchmark's workloads: their inputs, one request each, and the checks
that decide whether a request failed.

A request drives the package's public API the way a user would. For the
n-queens workloads it is one ``bench`` row (``cli.run_experiment``): plan,
search, audit and closed count. For ``relay-goals`` it is ``engine.ebfs``
on a representation built here, followed by ``model.validate_path``.

A request fails when its outcome is not success, its solution fails
``validate_path``, its solution does not run from an initial state to a goal
(checked by the representation and by this module's own oracle), or its
node and expansion counts differ from the pinned ones.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field

import relay


@dataclass
class Sample:
    """One finished request."""

    request_s: float
    search_s: float
    nodes: int
    failures: list = field(default_factory=list)
    cal_s: float = 0.0  # calibration loop time around the request


def queens_attack_free(queens) -> bool:
    """Independent n-queens oracle: no two queens share a row, column or
    diagonal."""
    qs = list(queens)
    return all(r1 != r2 and c1 != c2 and abs(r1 - r2) != abs(c1 - c2)
               for i, (r1, c1) in enumerate(qs) for r2, c2 in qs[i + 1:])


def check_search(pkg, rep, result, expected: tuple, final_ok) -> list:
    """Failure reasons for one search result; empty when it passes."""
    failures = []
    counts = (result.stats.nodes_created, result.stats.expansions)
    if counts != expected:
        failures.append(f"counts (nodes, expansions) {counts} differ from pinned {expected}")
    if result.outcome is not pkg.engine.Outcome.SUCCESS:
        failures.append(f"outcome is {result.outcome.value}")
        return failures
    sol = result.solution
    if not isinstance(sol, pkg.model.Path):
        failures.append(f"solution is not an edge path: {sol!r}")
        return failures
    states = sol.states()
    if not pkg.model.validate_path(rep, sol):
        failures.append("solution fails validate_path")
    if not (rep.initial(states[0]) and rep.goal(states[-1])):
        failures.append("solution does not run from an initial state to a goal")
    if not final_ok(states[0], states[-1]):
        failures.append("solution fails the benchmark's own start and goal check")
    return failures


class SearchProbe:
    """Times each ``bfs``/``ebfs`` call made through the ``engine`` or
    ``cli`` module and keeps its representation and result."""

    def __init__(self, pkg, patcher):
        self.calls: list = []
        for module in (pkg.engine, pkg.cli):
            for name in ("bfs", "ebfs"):
                patcher.set(module, name, self._timed(getattr(module, name)))

    def _timed(self, search):
        calls = self.calls

        def timed(rep, *args, **kwargs):
            started = time.perf_counter()
            result = search(rep, *args, **kwargs)
            calls.append((rep, result, time.perf_counter() - started))
            return result
        return timed

    def take(self) -> tuple:
        """The one search of the request just run."""
        if len(self.calls) != 1:
            raise RuntimeError(f"expected one search per request, saw {len(self.calls)}")
        return self.calls.pop()


@dataclass(frozen=True)
class NQueensCase:
    n: int
    known_specs: tuple
    expected: tuple  # (nodes_created, expansions)


class NQueensWorkload:
    """One ``bench`` row on an n-queens board. The paper fixes the inputs
    (board size and known states), so they do not depend on the seed."""

    def __init__(self, name: str, algorithm: str, case: NQueensCase):
        self.name, self.algorithm, self.case = name, algorithm, case

    def make_inputs(self, seed: int) -> None:
        pass

    def setup(self, pkg) -> None:
        """Known-state generation and the representation build, through the
        public n-queens API."""
        nq, n = pkg.nqueens, self.case.n
        entries = [nq.KnownState(nq.empty_board(n), nq.ROLE_INITIAL)]
        prefix = None
        for spec in self.case.known_specs:
            if spec.startswith("solution-prefix:"):
                prefix = nq.on_solution_state(n, int(spec.split(":", 1)[1]))
                entries.append(nq.KnownState(prefix, nq.ROLE_ON_SOLUTION))
            else:
                entries.append(nq.KnownState(nq.false_heuristic_state(n, prefix),
                                             nq.ROLE_FALSE_HEURISTIC))
        spec = nq.KnownStateSpec(tuple(entries))
        self.known = spec.states
        self.rep = nq.nqueens_rep(n, spec)
        self.config = pkg.cli.ExperimentConfig(
            ns=(n,), algorithms=(self.algorithm,), known_specs=self.case.known_specs)

    def trace(self, tracer) -> None:
        pass  # the tracer wraps the representation cli builds per request

    def run(self, pkg, probe):
        started = time.perf_counter()
        reports = pkg.cli.run_experiment(self.config, trace_sink=io.StringIO(),
                                         warn_sink=io.StringIO())
        request_s = time.perf_counter() - started
        return request_s, reports, probe.take()

    def check(self, pkg, raw) -> Sample:
        request_s, reports, (rep, result, search_s) = raw
        n = self.case.n
        failures = check_search(
            pkg, rep, result, self.case.expected,
            lambda first, last: (not first.queens and len(last.queens) == n
                                 and queens_attack_free(last.queens)))
        if tuple(rep.known_states) != self.known:
            failures.append("the search did not start from the workload's known states")
        if len(reports) != 1 or reports[0].outcome != "success" or (
                reports[0].nodes_created, reports[0].expansions) != (
                result.stats.nodes_created, result.stats.expansions):
            failures.append(f"bench row disagrees with the search result: {reports}")
        return Sample(request_s, search_s, result.stats.nodes_created, failures)


class RelayWorkload:
    """``engine.ebfs`` on a seeded relay graph, then ``validate_path``."""

    name = "relay-goals"

    def __init__(self, shape: relay.RelayShape, expected: tuple):
        self.shape, self.expected = shape, expected

    def make_inputs(self, seed: int) -> None:
        self.graph = relay.build(self.shape, seed)

    def setup(self, pkg) -> None:
        self.rep = relay.representation(self.graph, pkg.model)

    def trace(self, tracer) -> None:
        self.rep = tracer.wrap_rep(self.rep, "relay")

    def run(self, pkg, probe):
        rep = self.rep
        started = time.perf_counter()
        result = pkg.engine.ebfs(rep)
        if isinstance(result.solution, pkg.model.Path):
            pkg.model.validate_path(rep, result.solution)
        request_s = time.perf_counter() - started
        return request_s, probe.take()

    def check(self, pkg, raw) -> Sample:
        request_s, (rep, result, search_s) = raw
        g = self.graph
        failures = check_search(
            pkg, rep, result, self.expected,
            lambda first, last: first == g.root and last in g.goals)
        return Sample(request_s, search_s, result.stats.nodes_created, failures)


def workloads(small: bool = False) -> dict:
    """Name to workload. ``small`` gives the same workloads on n=5 boards
    and a small relay graph, for the benchmark's own tests."""
    bfs8 = NQueensCase(8, (), (118878, 115777))
    ebfs3_8 = NQueensCase(8, ("solution-prefix:4", "false-heuristic"), (46280, 11708))
    relay_full = (relay.FULL, (29403, 22430))
    if small:
        bfs8 = NQueensCase(5, (), (453, 371))
        ebfs3_8 = NQueensCase(5, ("solution-prefix:3", "false-heuristic"), (175, 33))
        relay_full = (relay.SMALL, (430, 272))
    return {
        "nqueens-bfs-8": NQueensWorkload("nqueens-bfs-8", "bfs", bfs8),
        "nqueens-ebfs3-8": NQueensWorkload("nqueens-ebfs3-8", "ebfs", ebfs3_8),
        "relay-goals": RelayWorkload(*relay_full),
    }
