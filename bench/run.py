#!/usr/bin/env python3
"""islandkit benchmark: times the CLI on generated inputs and scores what it returns.

    python3 bench/run.py --workload color-planar --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, untraced and traced

A run imports the package from ``src/`` of the checkout, writes the
workload's inputs under ``bench/out/``, and calls ``islandkit.cli.main``
in-process with ``--json`` on each job, pass after pass, for about
``--seconds`` seconds (at least two passes).  Every distinct payload is
re-verified from outside, and a payload digest that changes between
passes fails the job.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Per-job digests, input digests and all scores go to
``bench/out/<workload>-seed<seed>-trace<t>.json``; traced runs also write
their spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import checks
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 9
MIN_PASSES = 2
MODULES = ("graphs", "islands", "separators", "coloring", "percolation",
           "decomposition", "surgery", "cli")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_package() -> SimpleNamespace:
    """Import islandkit afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "islandkit" or n.startswith("islandkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"islandkit.{m}") for m in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"islandkit was imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int, directory: str):
    """Import the package, generate and write the inputs; repeated, and
    the median time is the set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        ik = import_package()
        graphs, texts, jobs = workloads.build(workload, seed)
        paths, digests = workloads.write_inputs(workload, seed, graphs, texts, directory)
        times.append(time.perf_counter() - start)
    hosts = {g.name: ik.graphs.Graph(g.n, g.edges) for g in graphs}
    return ik, jobs, paths, digests, hosts, statistics.median(times)


def run_job(ik, job, paths, tr: tracer.Tracer | None):
    """One timed CLI call; returns (seconds, exit code, payload, stderr)."""
    argv = ["--json"] + workloads.expand(job.argv, paths)
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        if job.prepare is not None:
            job.prepare(paths)
        return ik.cli.main(argv)

    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tr.span(tracer.JOB, call, (), {}) if tr else call()
        except Exception as exc:  # a crash fails the job, not the run
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    seconds = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        return seconds, code, None, err.getvalue()
    body = report.get("payload", report) if isinstance(report, dict) else None
    return seconds, code, body, err.getvalue()


class Ledger:
    """Per-job times, digests and verdicts across the passes of one run."""

    def __init__(self, ik, jobs, paths, hosts):
        self.ik, self.jobs, self.paths, self.hosts = ik, jobs, paths, hosts
        self.times: list[list[float]] = [[] for _ in jobs]
        self.first: list[tuple[int, str, dict | None]] = []  # (exit, digest, payload)
        self.problems: list[list[str]] = [[] for _ in jobs]
        self.attempted = 0
        self.failed = 0

    def record(self, results) -> float:
        """Add one pass; return its total job time."""
        for i, (seconds, code, body, stderr) in enumerate(results):
            job = self.jobs[i]
            digest = checks.digest(body) if body is not None else "-"
            self.times[i].append(seconds)
            self.attempted += 1
            if len(self.first) <= i:
                self.first.append((code, digest, body))
                problems = checks.check(self.ik, job, code, body, self.hosts[job.graph], self.paths)
                if problems and stderr.strip():
                    problems.append(stderr.strip().splitlines()[-1])
                self.problems[i] = problems
            elif (code, digest) != self.first[i][:2]:
                self.problems[i].append(f"payload digest changed between passes ({digest[:12]})")
            if self.problems[i]:
                self.failed += 1
        return sum(r[0] for r in results)

    def wall(self) -> float:
        return sum(statistics.median(t) for t in self.times)

    def scores(self) -> dict[str, float]:
        verified = [None if problems else body
                    for (_, _, body), problems in zip(self.first, self.problems)]
        out = checks.quality(self.jobs, verified, self.hosts)
        out["jobs_failed_ratio"] = self.failed / self.attempted
        return out

    def job_rows(self) -> list[dict]:
        rows = []
        for job, (code, digest, body), times, problems in zip(
            self.jobs, self.first, self.times, self.problems
        ):
            flags = [] if problems else checks.degeneracy_flags(job, body, self.hosts[job.graph])
            rows.append({"id": job.id, "exit": code, "digest": digest, "seconds": times,
                         "flags": flags, "problems": problems})
        return rows


def layer_metrics(spans, tr: tracer.Tracer) -> dict[str, float]:
    agg = tracer.aggregate(spans)
    out: dict[str, float] = {}
    for name, row in agg.items():
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = row[key]

    def calls(name: str) -> int:
        return agg.get(name, {}).get("calls", 0)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["separators.shatter.candidates_per_call"] = per(
        agg.get("separators.verify_shatter", {}).get("inside:separators.shatter", 0),
        calls("separators.shatter"),
    )
    out["coloring.peel_rounds"] = calls(tracer.FINDER)
    out["coloring.finder_fallback_ratio"] = per(tr.fallbacks, calls(tracer.FINDER))
    out["decomposition.find_linkage.separation_ratio"] = per(
        tr.separations, calls("decomposition.find_linkage"))
    return out


def select(declared: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """The declared metrics with their units.  A per-function counter that
    no span produced reads 0; any other missing metric is an error."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[-1] in ("calls", "s", "self_s"):
            value = 0
        else:
            raise KeyError(f"benchmark computes no metric named {name!r}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run(args) -> int:
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "islandkit", "__init__.py")):
        print(f"error: no islandkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tag = f"{args.workload}-seed{args.seed}"
    directory = os.path.join(OUT, f"{tag}-inputs")
    try:
        ik, jobs, paths, input_digests, hosts, setup_s = setup(args.workload, args.seed, directory)
        ledger = Ledger(ik, jobs, paths, hosts)
        tr = tracer.Tracer()
        plain: list[float] = []  # untraced pass totals
        traced: list[float] = []
        layer_runs: list[dict[str, float]] = []
        last_spans: list[tuple] = []
        start = time.perf_counter()
        while True:
            use_trace = args.trace == 1 and len(plain) > len(traced)
            pass_start = time.perf_counter()
            if use_trace:
                tr.reset()
                tr.install()
                try:
                    results = [run_job(ik, job, paths, tr) for job in jobs]
                finally:
                    tr.uninstall()
                last_spans = tr.spans
                layer_runs.append(layer_metrics(tr.spans, tr))
                traced.append(ledger.record(results))
            else:
                plain.append(ledger.record([run_job(ik, job, paths, None) for job in jobs]))
            now = time.perf_counter()
            done = len(plain) >= MIN_PASSES if args.trace == 0 else bool(traced)
            if done and now - start + (now - pass_start) > args.seconds:
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    scores = ledger.scores()
    if args.trace == 0:
        values = {
            "setup_s": setup_s,
            "wall_s": ledger.wall(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = select(spec["end_to_end"], values)
    else:
        values = {k: statistics.median(r.get(k, 0) for r in layer_runs)
                  for k in set().union(*layer_runs)}
        values.update(scores)
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        metrics = select(spec["per_layer"], values)

    rows = ledger.job_rows()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "passes": {"untraced": len(plain), "traced": len(traced)},
                   "input_digests": input_digests, "jobs": rows,
                   "scores": scores, "metrics": metrics,
                   "targets_not_found": tr.missing}, fh, indent=1, sort_keys=True)
    if args.trace == 1:
        _write_spans(os.path.join(OUT, f"{tag}-spans.json"), last_spans, jobs)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes untraced={len(plain)} traced={len(traced)}")
    for name, digest in sorted(input_digests.items()):
        print(f"input {name:16s} sha256 {digest}")
    for row in rows:
        status = "FAIL " + "; ".join(row["problems"]) if row["problems"] else "ok"
        print(f"job {row['id']:36s} exit {row['exit']} "
              f"median {statistics.median(row['seconds']):8.4f} s  "
              f"sha256 {row['digest'][:16]}  flags {','.join(row['flags']) or '-'}  {status}")
    for name, value in sorted(scores.items()):
        print(f"score {name:40s} {value:.6g}")
    for name, metric in metrics.items():
        print(f"metric {name:55s} {metric['value']:.6g} {metric['unit']}")
    if tr.missing:
        print(f"# trace targets not found: {', '.join(tr.missing)}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def _write_spans(path: str, spans: list[tuple], jobs) -> None:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        json.dump({
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "names": names,
            "jobs": [job.id for job in jobs],
            "spans": [[index[n], round(a - origin, 7), round(b - origin, 7), p, j]
                      for n, a, b, p, j in spans],
        }, fh, separators=(",", ":"))


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, after the
    verifier self-test; prints every metric with its unit."""
    here = os.path.abspath(__file__)
    ok = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "selftest.py")]).returncode == 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, here, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith(("job ", "metric ")):
                    print("  " + line)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload; without it, run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
