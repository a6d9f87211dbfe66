"""End-to-end and per-layer benchmark of the essm_search package.

    python3 perfbench/run.py --workload nqueens-ebfs3-8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run it from the root of a checkout; it imports the package from ``src/``
and fails (exit 2, no result line) when that is missing. One process runs
one workload with one client in a closed loop: the next request starts only
after the previous one ended, until ``--seconds`` have passed (at least one
request). Every request's output is checked; see ``workloads.py``.

With ``--trace 0`` the result carries the end-to-end metrics. Times are in
"cal", units of a fixed calibration loop timed between requests in the same
process (see ``calibration.py``), because the host's own speed drifts:

- request_cal     median of request time / calibration time, for one whole
                  request
- search_cal      the same for the bfs/ebfs call alone
- nodes_per_cal   nodes created / search_cal
- bytes_per_node  (peak RSS - RSS before the first search) / nodes created
- setup_s         median seconds of several set-ups: import, known-state
                  generation and representation build

The summary also prints the plain seconds (request_s, search_s,
nodes_per_s and the calibration loop's own time), which the results file
keeps as well, and the error rate (failed / attempted requests), which is
the ``failed`` and ``attempted`` fields of the result. With ``--trace 1``
the first half of the time runs untraced requests and the second half runs
traced ones (see ``tracing.py``); the result carries the per-layer metrics,
each the (low) median over the traced requests.

The last line of standard output is the JSON result. A summary with the run
metadata (kernel, Python, CPUs, commit, seed) comes before it, and the whole
record is appended to ``.perfbench/results.jsonl``; traced runs also write
their spans to ``.perfbench/spans-<workload>.bin``. ``--workload all`` runs
every workload, each in a fresh process, and prints one combined result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads as workloads_mod
from calibration import calibration_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PACKAGE = "essm_search"
SETUP_REPEATS = 15
# calibration around each request: at least CAL_MIN_S, and CAL_SHARE of the
# request before it, so long requests get a calibration as steady as they are
CAL_MIN_S = 0.3
CAL_SHARE = 0.1

END_TO_END_UNITS = {"request_cal": "cal", "search_cal": "cal", "nodes_per_cal": "1/cal",
                    "bytes_per_node": "B", "setup_s": "s"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".share", ".coverage")):
        return "ratio"
    return "count"


def import_package() -> SimpleNamespace:
    """A fresh import of the package from ``src/``: modules left by an
    earlier import are dropped first, so each call pays the full cost."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = SimpleNamespace(essm=importlib.import_module(PACKAGE))
    for mod in ("engine", "cli", "model", "nqueens", "kernels"):
        try:
            setattr(pkg, mod, importlib.import_module(f"{PACKAGE}.{mod}"))
        except ImportError:
            setattr(pkg, mod, None)
    if not Path(pkg.essm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {pkg.essm.__file__}, not {SRC}")
    active = getattr(pkg.kernels, "active", None)
    pkg.kernel = active() if active else None
    return pkg


def kernel_name(pkg) -> str:
    name = getattr(pkg.kernels, "active_name", None)
    return name() if name else "none"


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def current_rss() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def high_percentile(samples: list):
    """The highest of p90, p99 and p99.9 with at least ten samples beyond
    it, as (label, value), or None when there are too few samples."""
    xs = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        if len(xs) * (100 - p) / 100 >= 10:
            return f"p{p:g}", xs[math.ceil(len(xs) * p / 100) - 1]
    return None


def run_requests(workload, pkg, probe, seconds: float, tracer=None) -> list:
    """Closed loop of requests for ``seconds`` (at least one). The
    calibration loop runs before the first request and after each one; a
    sample's ``cal_s`` is the mean of the two around it. With a tracer,
    each request's span rows and counts are kept on its sample; spans made
    by the checks are dropped."""
    samples = []
    deadline = time.perf_counter() + seconds
    cal_before = calibration_s(CAL_MIN_S)
    while True:
        gc.collect()
        if tracer is not None:
            lo, before = len(tracer.rec), Counter(tracer.rec.counts)
        started = time.perf_counter()
        try:
            raw = workload.run(pkg, probe)
        except Exception as exc:  # a failed request, counted; the loop goes on
            elapsed = time.perf_counter() - started
            probe.calls.clear()
            raw = None
            sample = workloads_mod.Sample(elapsed, elapsed, 0,
                                          [f"raised {type(exc).__name__}: {exc}"])
        if tracer is not None:
            hi, counts = len(tracer.rec), tracer.rec.counts - before
        if raw is not None:
            sample = workload.check(pkg, raw)
        del raw
        if tracer is not None:
            tracer.rec.truncate(hi)
            sample.span_rows, sample.counts = (lo, hi), counts
        cal_after = calibration_s(max(CAL_MIN_S, CAL_SHARE * sample.request_s))
        sample.cal_s = (cal_before + cal_after) / 2
        cal_before = cal_after
        samples.append(sample)
        if time.perf_counter() >= deadline:
            return samples


def end_to_end(samples: list, setup_times: list, memory: tuple) -> tuple[dict, dict]:
    """The result's metrics, and the per-request series behind them (with
    the plain seconds, which the summary prints too)."""
    done = [s for s in samples if s.nodes]
    series = {
        "request_cal": [s.request_s / s.cal_s for s in done],
        "search_cal": [s.search_s / s.cal_s for s in done],
        "request_s": [s.request_s for s in done],
        "search_s": [s.search_s for s in done],
        "calibration_s": [s.cal_s for s in done],
    }
    med = {k: statistics.median(v) if v else 0.0 for k, v in series.items()}
    nodes = done[0].nodes if done else 0
    rss_before, peak = memory
    metrics = {
        "request_cal": med["request_cal"],
        "search_cal": med["search_cal"],
        "nodes_per_cal": nodes / med["search_cal"] if nodes else 0.0,
        "bytes_per_node": (peak - rss_before) / nodes if nodes else 0.0,
        "setup_s": statistics.median(setup_times),
    }
    series["seconds"] = {"request_s": med["request_s"], "search_s": med["search_s"],
                         "nodes_per_s": nodes / med["search_s"] if nodes else 0.0,
                         "calibration_s": med["calibration_s"]}
    return metrics, series


def per_layer(tracer, traced: list, untraced: list) -> dict:
    base = statistics.median(s.search_s for s in untraced)
    rows = [tracing.layer_metrics(tracer.rec.layer_totals(*s.span_rows), s.counts, base)
            for s in traced]
    return {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}


def summary(args, meta, samples, metrics, series, memory, setup_times) -> list:
    attempted = len(samples)
    failed = sum(1 for s in samples if s.failures)
    lines = [f"meta {json.dumps(meta)}",
             f"{args.workload}: {attempted} requests, closed loop, one client"]

    def line(name, value, unit, note=""):
        if name in series:
            note = f"median of {len(series[name])}"
            hp = high_percentile(series[name])
            if hp:
                note += f", {hp[0]} {hp[1]:.6g}"
        lines.append(f"  {name:<16} {value:<14.6g} {unit:<6} {note}")

    if args.trace:
        for name, value in metrics.items():
            lines.append(f"  {name:<32} {value:<14.6g} {unit_of(name)}")
    else:
        nodes = max(s.nodes for s in samples)
        for name, value in metrics.items():
            note = {"nodes_per_cal": f"{nodes} nodes / search_cal",
                    "bytes_per_node": (f"peak RSS {memory[1] / 2**20:.1f} MiB - "
                                       f"{memory[0] / 2**20:.1f} MiB before the first "
                                       f"search, over {nodes} nodes"),
                    "setup_s": f"median of {len(setup_times)} set-ups"}.get(name, "")
            line(name, value, END_TO_END_UNITS[name], note)
        units = {"request_s": "s", "search_s": "s", "nodes_per_s": "1/s", "calibration_s": "s"}
        for name, value in series["seconds"].items():
            line(name, value, units[name])
        lines.append(f"  {'error_rate':<16} {failed / attempted:<14.6g} {'ratio':<6} "
                     f"{failed} failed / {attempted} attempted")
    reasons = Counter(reason for s in samples for reason in s.failures)
    for reason, count in reasons.items():
        lines.append(f"  failed {count} times: {reason}")
    return lines


def run_one(args) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = workloads_mod.workloads(small=args.small)[args.workload]
    workload.make_inputs(args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        pkg = import_package()
        workload.setup(pkg)
        setup_times.append(time.perf_counter() - started)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "small": args.small, "kernel": kernel_name(pkg),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit()}
    patcher = tracing.Patcher()
    probe = workloads_mod.SearchProbe(pkg, patcher)
    gc.collect()
    memory = (current_rss(), 0)
    series = {}
    if not args.trace:
        samples = run_requests(workload, pkg, probe, args.seconds)
        memory = (memory[0], peak_rss())
        metrics, series = end_to_end(samples, setup_times, memory)
    else:
        untraced = run_requests(workload, pkg, probe, args.seconds / 2)
        tracer = tracing.Tracer(pkg)
        tracer.install()
        workload.trace(tracer)
        traced = run_requests(workload, pkg, probe, args.seconds / 2, tracer)
        tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        meta["untraced_requests"] = len(untraced)
        meta["unwrapped"] = tracer.missing
        tracer.rec.write(OUT / f"spans-{args.workload}.bin",
                         [list(s.span_rows) for s in traced])
        samples = untraced + traced
    patcher.restore()

    failed = sum(1 for s in samples if s.failures)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)}
                          for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps({"meta": meta, **result, "seconds": series.get("seconds")}) + "\n")
    print("\n".join(summary(args, meta, samples, metrics, series, memory, setup_times)))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads_mod.workloads():
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            argv.append("--small")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    names = list(workloads_mod.workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="n=5 boards and a small relay graph (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
