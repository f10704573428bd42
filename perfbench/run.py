"""sailkit benchmark: `experiment bounds`, `tw` and `obstruct kkw` through
`sailkit.cli.run`, in process.

    python3 perfbench/run.py --workload {bounds,tw,kkw} --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/sailkit`.  One client sends
the next query when the previous one has returned (a closed loop, no
threads).  Every query runs under the same deadline; a query that passes it
is cancelled by SIGALRM, counted as failed and timed at the deadline.
Outputs are checked by `checks.py`.  The last stdout line is one JSON
object: with `--trace 0` the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer metrics of a separate traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, inputs, tracing  # noqa: E402

DEADLINE_S = 3.0
# The percentile behind query_tail_ms: the highest one that leaves at least
# ten queries beyond it in a baseline run (see README.md).
TAIL_PERCENTILE = {"bounds": 85, "tw": 85, "kkw": 98}
SETUP_REPEATS = 5
# A traced run stops early if it runs this long (a guard against a slow
# change pushing the run past its time limit).
TRACE_LIMIT_S = 120.0


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside the query; not an Exception, so sailkit's
    handlers let it through."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def execute(run, argv, deadline):
    """Run one query; returns (exit code or None, stdout, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = "deadline"
    except Exception as exc:  # a crash is a failed query, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    return code, out.getvalue(), (deadline if error == "deadline" else elapsed), error


class Workload:
    """A workload's queries and input files, with lazily computed references."""

    def __init__(self, name, workdir):
        with open(workdir / "manifest.json") as fh:
            manifest = json.load(fh)
        self.name = name
        self.workdir = workdir
        self.fingerprint = manifest["fingerprint"]
        self.queries = manifest["queries"]

    def argv(self, query):
        return [a.replace("{dir}", str(self.workdir)) for a in query["argv"]]

    def graph(self, query):
        argv = self.argv(query)
        with open(argv[argv.index("--graph") + 1]) as fh:
            return json.load(fh)

    def prepare(self, query):
        """Input graph and reference values for the checks, not timed."""
        graph = self.graph(query) if "--graph" in query["argv"] else None
        return graph, checks.reference(query, graph) if graph else None


def attempt(workload, run, query, deadline=DEADLINE_S):
    """Run and check one query: (latency, failure reason or None, wrong answer?)."""
    graph, ref = workload.prepare(query)
    gc.collect()  # garbage of earlier queries is not this query's cost
    code, out, latency, error = execute(run, workload.argv(query), deadline)
    if error:
        return latency, error, False
    if code == 3:
        return latency, "exit 3 (cap exceeded)", False
    if '"cap"' in out:
        return latency, "cap in output", False
    try:
        problem = checks.check(query, code, out, graph, ref)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    if problem:
        print(f"MISMATCH query {query['id']} ({query['cls']}): {problem}")
    return latency, problem, problem is not None


def closed_loop(workload, run, seconds):
    """Send queries one after another until `seconds` of query time are used."""
    records = []
    busy = 0.0
    i = 0
    while busy < seconds:
        query = workload.queries[i % len(workload.queries)]
        if i == len(workload.queries):
            print("note: query list exhausted, repeating it", file=sys.stderr)
        latency, failure, wrong = attempt(workload, run, query)
        busy += latency
        records.append((query, latency, failure, wrong))
        i += 1
    return records, busy


def summarize(records):
    attempted = len(records)
    failed = sum(1 for _, _, failure, _ in records if failure)
    wrong = sum(1 for _, _, _, w in records if w)
    by_cls = {}
    for query, latency, failure, _ in records:
        entry = by_cls.setdefault(query["cls"], [0, 0, []])
        entry[0] += 1
        entry[1] += bool(failure)
        entry[2].append(latency)
    for cls, (n, bad, lats) in sorted(by_cls.items()):
        print(f"  {cls:10} queries {n:4}  failed {bad:3}  median {statistics.median(lats) * 1000:9.2f} ms"
              f"  max {max(lats) * 1000:9.2f} ms", file=sys.stderr)
    return attempted, failed, wrong


def end_to_end(workload, run, seconds, setup_s):
    records, busy = closed_loop(workload, run, seconds=seconds)
    attempted, failed, wrong = summarize(records)
    latencies = [latency for _, latency, _, _ in records]
    pct = TAIL_PERCENTILE[workload.name]
    tail = (statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
            if len(latencies) > 1 else latencies[0])
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "query_tail_ms": (tail * 1000, "ms"),
        "queries_per_s": ((attempted - failed) / busy, "1/s"),
        "answered_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"  p{pct} over {attempted} queries, {busy:.1f} s of query time", file=sys.stderr)
    return attempted, failed, wrong, metrics


def traced(workload, run_module, count, spans_path):
    """Run each of the first `count` queries untraced and traced, back to
    back in alternating order, so warm-up favours neither side."""
    tracer = tracing.Tracer()
    run = lambda argv: run_module.run(argv)  # noqa: E731 -- looked up per call
    records, plain_busy, busy, wrong = [], 0.0, 0.0, 0
    began = time.perf_counter()
    for i, query in enumerate(workload.queries[:count]):
        if time.perf_counter() - began > TRACE_LIMIT_S:
            print(f"note: traced run stopped after {i} queries", file=sys.stderr)
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.query = query["id"]
                tracer.stack.clear()  # a deadline can strike between a wrapper's push and try
                tracer.install()
            try:
                latency, failure, bad = attempt(workload, run, query)
            finally:
                tracer.uninstall()
            wrong += bad
            if with_trace:
                busy += latency
                records.append((query, latency, failure, bad))
            else:
                plain_busy += latency
    tracer.dump(spans_path)
    attempted, failed, _ = summarize(records)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_ratio"] = (busy / plain_busy, "ratio")
    metrics["trace.queries"] = (attempted, "count")
    return attempted, failed, wrong, metrics


def set_up(workload, seed, workdir):
    """Set up SETUP_REPEATS times, each in a fresh process; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(workdir)],
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sailkit" / "__init__.py").is_file():
        print(f"error: no sailkit sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from sailkit import cli

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = set_up(args.workload, args.seed, workdir)
        workload = Workload(args.workload, workdir)
        print(f"inputs sha256 {workload.fingerprint}  ({args.workload}, seed {args.seed})")
        if args.trace:
            out = HERE / "_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-{args.seed}.jsonl"
            count = inputs.WORKLOADS[args.workload][2]
            attempted, failed, wrong, metrics = traced(workload, cli, count, spans)
        else:
            attempted, failed, wrong, metrics = end_to_end(workload, cli.run, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
