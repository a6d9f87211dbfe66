"""The ``bench`` command: run search comparisons and emit csv or json rows.

Example:

    bench --n 5..8 --algo bfs,ebfs --known solution-prefix:2 --format csv

The initial state (the empty board) is always the first known state; each
``--known`` adds one more, in the order given. Generators available:

    solution-prefix:<depth>   first <depth> rows of the first full solution
    false-heuristic           same-size placement incomparable with the most
                              recent solution-prefix (needs one before it)
    <serialized state>        an explicit placement, e.g. 5:0,0;1,2

Exit status: 0 when every run succeeded, 1 when any run failed or hit a
resource cap, 2 for configuration errors (nothing is run in that case).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

from .engine import (Outcome, SearchLimits, SearchResult, TraceRecord, bfs,
                     ebfs)
from .errors import ConfigError, ModelError, StateParseError
from .model import EssmRepresentation, SingleStateSolution, validate_path
from .nqueens import (KnownState, KnownStateSpec, ROLE_EXPLICIT,
                      ROLE_FALSE_HEURISTIC, ROLE_INITIAL, ROLE_ON_SOLUTION,
                      _parse_int, empty_board, false_heuristic_state,
                      format_state, nqueens_rep, on_solution_state,
                      parse_state)

PROBLEM = "nqueens"

CSV_COLUMNS = ("problem", "n", "algorithm", "k_count", "seeding",
               "nodes_created", "expansions", "closed_count",
               "solution_length", "outcome", "millis")

DEFAULT_PREFIX_DEPTH = 2

ALGORITHMS = ("bfs", "ebfs")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one invocation runs. ``known_specs`` are the raw --known
    values, resolved per board size when the runs are planned."""

    ns: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHMS
    known_specs: tuple[str, ...] = ()
    max_nodes: int | None = None
    max_expansions: int | None = None
    max_seconds: float | None = None
    output_format: str = "csv"
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", tuple(self.ns))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "known_specs", tuple(self.known_specs))
        if not self.ns:
            raise ConfigError("at least one board size is required")
        if any(n < 1 for n in self.ns):
            raise ConfigError("board sizes must be positive")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        for cap in (self.max_nodes, self.max_expansions):
            if cap is not None and cap < 1:
                raise ConfigError("resource caps must be positive")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ConfigError("resource caps must be positive")


@dataclass(frozen=True)
class ExperimentReport:
    """One emitted row. ``solution_length`` is None for non-success rows;
    ``millis`` is wall-clock and excluded from determinism guarantees."""

    problem: str
    n: int
    algorithm: str
    k_count: int
    seeding: str
    nodes_created: int
    expansions: int
    closed_count: int
    solution_length: int | None
    outcome: str
    millis: float


def _digits(text: str) -> int:
    """``text`` as an int when it is ASCII digits alone, by the state
    parser's rule; ValueError for anything else ``int`` would take: other
    scripts' digits, ``_``, signs and padding."""
    value, end = _parse_int(text, 0, "a number")
    if end != len(text):
        raise ValueError(f"{text!r} is not a number")
    return value


def parse_n_values(text: str) -> tuple[int, ...]:
    """Sizes as a single int, an inclusive a..b range, or a comma list of
    both, in ASCII digits without spaces: ``6``, ``5..8``, ``4,6..7``."""
    out: list[int] = []
    for part in text.split(","):
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = _digits(lo_text), _digits(hi_text)
            except ValueError:
                raise ConfigError(f"bad size range {part!r}")
            if lo > hi:
                raise ConfigError(f"empty size range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(_digits(part))
            except ValueError:
                raise ConfigError(f"bad board size {part!r}")
    return tuple(out)


def _resolve_known(n: int, known_specs: Sequence[str]) -> tuple[KnownStateSpec, str]:
    """Known states for one board size, plus the human-readable seeding
    label. The empty board always leads; specs append in the order given."""
    entries = [KnownState(empty_board(n), ROLE_INITIAL)]
    labels = ["empty"]
    last_prefix = None
    for spec in known_specs:
        if spec == "solution-prefix" or spec.startswith("solution-prefix:"):
            if ":" in spec:
                depth_text = spec.split(":", 1)[1]
                try:
                    depth = _digits(depth_text)
                except ValueError:
                    raise ConfigError(f"bad solution-prefix depth {depth_text!r}")
            else:
                depth = DEFAULT_PREFIX_DEPTH
            try:
                state = on_solution_state(n, depth)
            except ModelError as exc:
                raise ConfigError(f"cannot build solution-prefix for n={n}: {exc}")
            last_prefix = state
            entries.append(KnownState(state, ROLE_ON_SOLUTION))
            labels.append(f"solution-prefix:{depth}")
        elif spec == "false-heuristic":
            if last_prefix is None:
                raise ConfigError("false-heuristic needs a solution-prefix before it")
            try:
                state = false_heuristic_state(n, last_prefix)
            except ModelError as exc:
                raise ConfigError(f"cannot build false-heuristic for n={n}: {exc}")
            entries.append(KnownState(state, ROLE_FALSE_HEURISTIC))
            labels.append("false-heuristic")
        else:
            try:
                state = parse_state(spec)
            except StateParseError as exc:
                raise ConfigError(f"bad known state {spec!r}: {exc}")
            if state.n != n:
                raise ConfigError(f"known state {spec!r} is for n={state.n}, "
                                  f"but this run uses n={n}")
            entries.append(KnownState(state, ROLE_EXPLICIT))
            labels.append(f"state:{format_state(state)}")
    return KnownStateSpec(tuple(entries)), "+".join(labels)


@dataclass(frozen=True)
class _Plan:
    n: int
    algorithm: str
    rep: EssmRepresentation
    k_count: int
    seeding: str
    warning: str | None


def _plan_runs(config: ExperimentConfig) -> list[_Plan]:
    """Validate the whole configuration and build every representation
    before anything runs, so config errors cannot interrupt mid-way."""
    plans: list[_Plan] = []
    for n in config.ns:
        full_spec, full_label = _resolve_known(n, config.known_specs)
        for algorithm in config.algorithms:
            warning = None
            if algorithm == "bfs":
                spec = KnownStateSpec((full_spec.entries[0],))
                label = "empty"
                if len(full_spec.entries) > 1:
                    warning = (f"bfs(n={n}) ignores {len(full_spec.entries) - 1} "
                               "known state(s) beyond the initial one")
            else:
                spec, label = full_spec, full_label
            try:
                rep = nqueens_rep(n, spec)
            except ModelError as exc:
                raise ConfigError(f"invalid known states for n={n}: {exc}")
            plans.append(_Plan(n, algorithm, rep, len(spec.entries), label, warning))
    return plans


def _audit_solution(plan: _Plan, result: SearchResult) -> None:
    """Refuse to emit a success row whose solution does not check out."""
    sol = result.solution
    if isinstance(sol, SingleStateSolution):
        ok = plan.rep.goal(sol.state) and (plan.rep.initial(sol.state)
                                           or sol.state in plan.rep.known_states)
    else:
        states = sol.states()
        ok = (validate_path(plan.rep, sol)
              and plan.rep.initial(states[0])
              and plan.rep.goal(states[-1])
              and any(s in states for s in plan.rep.known_states))
    if not ok:
        raise ModelError(f"internal error: invalid solution for n={plan.n} {plan.algorithm}")


def _write_trace(sink, rec: TraceRecord) -> None:
    print(f"{rec.step},{format_state(rec.state)},{rec.min_distance},"
          f"{rec.open_count},{rec.nodes_created}", file=sink)


def run_experiment(config: ExperimentConfig, *, trace_sink=None,
                   warn_sink=None) -> list[ExperimentReport]:
    """Run every (n, algorithm) combination and return one report per run.

    Runs execute sequentially in configuration order. Output is fully
    deterministic apart from the millis field.
    """
    if trace_sink is None:
        trace_sink = sys.stderr
    if warn_sink is None:
        warn_sink = sys.stderr
    plans = _plan_runs(config)
    limits = SearchLimits(max_nodes=config.max_nodes,
                          max_expansions=config.max_expansions,
                          max_seconds=config.max_seconds)
    if limits == SearchLimits():
        limits = None
    reports: list[ExperimentReport] = []
    for plan in plans:
        if plan.warning:
            print(f"warning: {plan.warning}", file=warn_sink)
        tracer = None
        if config.trace:
            print(f"# trace problem={PROBLEM} n={plan.n} "
                  f"algorithm={plan.algorithm} seeding={plan.seeding}", file=trace_sink)
            tracer = partial(_write_trace, trace_sink)
        run = ebfs if plan.algorithm == "ebfs" else bfs
        started = time.perf_counter()
        result = run(plan.rep, limits=limits, trace=tracer)
        millis = round((time.perf_counter() - started) * 1000.0, 3)
        if result.outcome is Outcome.SUCCESS:
            _audit_solution(plan, result)
        reports.append(ExperimentReport(
            problem=PROBLEM,
            n=plan.n,
            algorithm=plan.algorithm,
            k_count=plan.k_count,
            seeding=plan.seeding,
            nodes_created=result.stats.nodes_created,
            expansions=result.stats.expansions,
            closed_count=result.db.closed_count,
            solution_length=result.solution_length,
            outcome=result.outcome.value,
            millis=millis,
        ))
    return reports


def emit(reports: Sequence[ExperimentReport], output_format: str) -> str:
    """Serialize reports: csv with the fixed column header, or a json array
    of objects with the same keys (null solution_length on failures)."""
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            row = asdict(rep)
            writer.writerow(["" if row[col] is None else row[col] for col in CSV_COLUMNS])
        return buf.getvalue()
    if output_format == "json":
        return json.dumps([asdict(rep) for rep in reports], indent=2)
    raise ConfigError(f"unknown output format {output_format!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Compare single-source and multi-source breadth-first "
                    "search on n-queens boards.")
    parser.add_argument("--n", required=True,
                        help="board sizes: 6, 5..8, or a comma list of both")
    parser.add_argument("--algo", default="bfs,ebfs",
                        help="comma list out of: bfs, ebfs")
    parser.add_argument("--known", action="append", default=[],
                        metavar="SPEC",
                        help="extra known state: solution-prefix[:depth], "
                             "false-heuristic, or a serialized state; "
                             "repeatable, order preserved")
    parser.add_argument("--format", default="csv", choices=("csv", "json"),
                        dest="output_format", help="output format")
    parser.add_argument("--trace", action="store_true",
                        help="write one line per expansion to stderr")
    parser.add_argument("--max-nodes", type=int, default=None,
                        help="stop a run once this many nodes exist")
    parser.add_argument("--max-expansions", type=int, default=None,
                        help="stop a run after this many expansions")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="stop a run after this many seconds of search")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(
            ns=parse_n_values(args.n),
            algorithms=tuple(a.strip() for a in args.algo.split(",") if a.strip()),
            known_specs=tuple(args.known),
            max_nodes=args.max_nodes,
            max_expansions=args.max_expansions,
            max_seconds=args.max_seconds,
            output_format=args.output_format,
            trace=args.trace,
        )
        reports = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit(reports, config.output_format)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0 if all(r.outcome == Outcome.SUCCESS.value for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
