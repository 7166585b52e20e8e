"""Run one workload of the gridauthz benchmark.

    python3 perfbench/run.py --workload large-vo|job-churn|wire --seed N \
        --seconds S --trace 0|1

Run it from the root of a gridauthz checkout: it imports the program from
``src/`` and reads ``fixtures/``.  Inputs are generated from the seed
under ``.perfbench_work/`` (removed at exit); the closed loops draw their
requests from a generator as they go.  Every response is checked
against its predicted class; then a fresh ``Service`` restarts from the
logs the run left and must rebuild the live job table, and the audit log
must hold one record per decision.

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs a quarter of the time untraced and a
quarter traced, reports the per-layer metrics of the traced part, and
then runs the scaling sweep.  The last line of output is one JSON object;
the lines before it give each metric by name and unit, the sample counts
behind each percentile, and the environment, which is also saved with the
result under ``.perfbench_results/``.  A metric that could not be
measured is left out of the result and named in a ``#`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import drive
import gen
import layers
import sweep
from spans import SpanIndex, Tracer, percentile

WORKLOADS = ("large-vo", "job-churn", "wire")
SETUPS = {"large-vo": 7, "job-churn": 3, "wire": 9}
CHURN_RESTART_JOBS = 5000  # finished jobs in the log job-churn restarts from
# offered requests per second on the wire workload: ~40% of what the server
# sustains on this mix (~630 req/s on a 2-vCPU virtual machine)
WIRE_RATE = 240.0
TRACED_RUN_S = 160  # a traced run, sweep included, ends within this

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "submit_p50_us": "us",
    "submit_p99_us": "us",
    "manage_p50_us": "us",
    "manage_p99_us": "us",
    "tick_p50_us": "us",
    "tick_p99_us": "us",
    "query_p50_us": "us",
    "rss_peak_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gridauthz" / "service.py").is_file() or \
            not (root / "fixtures" / "reference_extended.policy").is_file():
        print(f"error: {root} is not a gridauthz checkout (no src/gridauthz or fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            report = traced_run(root, work, args.workload, args.seed, args.seconds)
        else:
            report = plain_run(root, work, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return emit(root, args, report)


# -- workloads -----------------------------------------------------------


class Workload:
    """Generated inputs of one workload: service files and a request stream."""

    def __init__(self, root: Path, work: Path, name: str, seed: int, seconds: float):
        self.root, self.dir, self.name = root, work, name
        rng = random.Random(seed)
        # each pass draws a fresh copy of the same request stream
        if name == "large-vo":
            vo = gen.LargeVO(rng)
            files = (vo.local_policy(), vo.vo_policy(), vo.gridmap(), 64)
            self.conf = gen.write_service_files(work, *files)
            self.stream = lambda: vo.stream(gen.stream_rng(seed))
        elif name == "job-churn":
            fx = (root / "fixtures" / "reference_extended.policy").read_text()
            self.conf = gen.write_service_files(work, fx, fx, gen.fixture_gridmap(),
                                                gen.CHURN_SLOTS)
            clock, old = gen.write_restart_log(rng, work / "audit.log", work / "events.log",
                                               CHURN_RESTART_JOBS)
            self.stream = lambda: gen.churn_stream(gen.stream_rng(seed), clock, old)
        else:
            fx = (root / "fixtures" / "reference.policy").read_text()
            files = (fx, fx, gen.fixture_gridmap(), 8)
            self.write_conf = lambda listen: gen.write_service_files(work, *files, listen)
            self.conf = self.write_conf("127.0.0.1:0")
            wire = gen.wire_stream(gen.stream_rng(seed), WIRE_RATE, seconds)
            self.stream = lambda: wire

    def reset_logs(self, pristine: dict[str, bytes]):
        for name in ("audit.log", "events.log"):
            path = self.dir / name
            if name in pristine:
                path.write_bytes(pristine[name])
            else:
                path.unlink(missing_ok=True)

    def pristine(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in (self.dir / "audit.log", self.dir / "events.log")
                if p.exists()}

    def run_pass(self, seconds: float, setups: int, tracer=None, spans_file=None):
        """One pass: set-ups, the timed requests, the checks."""
        marks = {}
        if self.name == "wire":
            stream = [r for r in self.stream() if r.due < seconds]
            result = drive.run_wire(self.root, self.dir, self.write_conf, stream, setups,
                                    spans_file)
        else:
            result = drive.run_inprocess(self.conf, self.stream(), seconds, setups, tracer,
                                         marks)
        if tracer is not None:
            marks["restart"] = tracer.mark()
        result.failures = drive.check(result, self.conf)
        if tracer is not None:
            marks["end"] = tracer.mark()
        return result, marks


def plain_run(root, work, name, seed, seconds):
    wl = Workload(root, work, name, seed, seconds)
    result, _ = wl.run_pass(seconds, SETUPS[name])
    metrics, notes = end_to_end(result)
    return {"metrics": metrics, "units": END_TO_END, "notes": notes,
            "attempted": len(result.requests), "failed": len(result.failures),
            "failures": result.failures, "env": drive.env_record(root, seed)}


def traced_run(root, work, name, seed, seconds):
    # each run must end within TRACED_RUN_S; the sweep drops its largest
    # restart rather than overrun
    deadline = time.perf_counter() + TRACED_RUN_S
    wl = Workload(root, work, name, seed, seconds / 4)
    pristine = wl.pristine()
    plain, _ = wl.run_pass(seconds / 4, 1)
    wl.reset_logs(pristine)

    tracer = Tracer()
    tracer.install()
    try:
        traced, marks = wl.run_pass(seconds / 4, 1, tracer, work / "spans.json")
    finally:
        tracer.uninstall()

    if name == "wire":
        server = [s for s in traced.spans if not _is_probe(s)]
        setup_spans, run_spans, counts = server, server, traced.counts
        overhead = _wire_overhead(traced, server)
    else:
        setup_spans = tracer.spans[marks["setup"]:marks["run"]]
        run_spans = tracer.spans[marks["run"]:marks["restart"]]
        counts = tracer.counts
        # no protocol front end and nothing due in a closed loop
        overhead = None
    missing = tracer.missing + traced.missing
    metrics = layers.layer_metrics(
        setup_spans, run_spans, tracer.spans[marks["restart"]:marks["end"]], counts,
        log_bytes=traced.log_bytes, wire_overhead_us=overhead, gen_late_us=traced.late_us,
        trace_overhead_ratio=_ratio(_mean(traced.service_us), _mean(plain.service_us)))
    sweep_metrics, sweep_notes = sweep.run_sweep(root, work / "sweep", seed, deadline)
    metrics.update(sweep_metrics)
    units = dict(layers.LAYER_METRICS)
    units.update({m: ("us" if "_us." in m else "s") for m in sweep.SWEEP_METRICS})
    unmeasured = layers.unmeasured(missing)
    for m in unmeasured:
        metrics[m] = None
    notes = [f"{m}: not measured, {why}" for m, why in unmeasured.items()]
    if name != "wire":
        notes.append("service.wire_overhead_us, harness.gen_late_p99_us: wire only")
    notes += sweep_notes
    failures = plain.failures + traced.failures
    return {"metrics": metrics, "units": units, "notes": notes,
            "attempted": len(plain.requests) + len(traced.requests),
            "failed": len(failures), "failures": failures, "env": drive.env_record(root, seed)}


def _is_probe(span):
    return isinstance(span[6], tuple) and len(span[6]) == 2 and "readiness-probe" in str(span[6][1])


def _ratio(num, den):
    return num / den if num is not None and den else None


def _mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _wire_overhead(result, server_spans):
    """Median of (client send-to-reply time - server handle_request span)."""
    handles = SpanIndex(server_spans).named("service.handle_request")
    by_thread: dict = {}
    for s in sorted(handles, key=lambda s: s[2]):
        by_thread.setdefault(s[6][0], []).append(s)
    diffs = []
    for conn in (0, 1):
        sent = [j for j, r in enumerate(result.requests) if r.conn == conn]
        lines = [result.requests[j].line for j in sent]
        for spans in by_thread.values():
            if [s[6][1].strip() for s in spans] == lines:
                diffs += [result.service_us[j] - (s[3] - s[2]) / 1e3
                          for j, s in zip(sent, spans) if result.service_us[j] is not None]
    return percentile(diffs, 50)


# -- metrics -------------------------------------------------------------


def end_to_end(result):
    by_kind: dict[str, list] = {}
    for req, lat in zip(result.requests, result.latency_us):
        by_kind.setdefault(req.kind, []).append(lat)
    completed = sum(1 for r in result.responses if r is not None)
    metrics = {
        "setup_s": statistics.median(result.setup_s),
        "throughput_rps": completed / result.elapsed_s if result.elapsed_s else None,
        "rss_peak_mb": result.rss_peak_mb,
    }
    notes = [f"setup_s: median of {len(result.setup_s)} set-ups "
             f"({', '.join(f'{s:.4f}' for s in result.setup_s)})"]
    if result.rss_base_mb:
        notes.append(f"rss_peak_mb: peak after {result.rss_at} requests; "
                     f"{result.rss_base_mb:.1f} MB resident before the first set-up "
                     f"(interpreter, harness, generated files)")
    if result.wall_elapsed_s:
        wall = sorted(result.service_us)
        notes.append(f"times scaled to the reference speed; the host ran {result.slowdown:.3f}x "
                     f"slower (median); wall clock: {completed / result.wall_elapsed_s:.1f} "
                     f"req/s, request p50 {wall[len(wall) // 2]:.1f} us")
    for label, kind in (("submit", gen.SUBMIT), ("manage", gen.MANAGE),
                        ("tick", gen.TICK), ("query", gen.QUERY)):
        p50, p99, n, beyond = drive.summarize(by_kind.get(kind, []))
        metrics[f"{label}_p50_us"] = p50
        if label == "query":
            notes.append(f"{label}: n={n}")
            continue
        metrics[f"{label}_p99_us"] = p99
        support = "" if beyond >= 10 else "; fewer than 10 samples beyond p99"
        notes.append(f"{label}: n={n}, {beyond} samples beyond p99{support}")
    if result.exhausted:
        notes.append("the run stopped before its time was up (stream exhausted, or "
                     "the wall-clock limit reached on a slow host)")
    return metrics, notes


def emit(root: Path, args, report) -> int:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    # a metric without a value is reported as missing, never as 0
    missing = [name for name, value in report["metrics"].items() if value is None]
    measured = {name: value for name, value in report["metrics"].items() if value is not None}
    for name, value in measured.items():
        print(f"{name} {value} {report['units'][name]}")
    if missing:
        report["notes"].append(f"left out of the result, not measured: {', '.join(missing)}")
    # failures / attempts; the result line carries both counts
    print(f"fail_ratio {report['failed'] / max(report['attempted'], 1)} ratio "
          f"({report['failed']} of {report['attempted']} attempted)")
    for note in report["notes"]:
        print(f"# {note}")
    for what, detail in report["failures"][:20]:
        print(f"! {what}: {detail}")
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": report["units"][name]}
                    for name, value in measured.items()},
    }
    out = root / ".perfbench_results"
    out.mkdir(exist_ok=True)
    saved = dict(result, env=report["env"], notes=report["notes"], missing=missing,
                 failures=report["failures"][:200], workload=args.workload,
                 seconds=args.seconds, trace=args.trace)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
