"""Scaling sweep, run only in the traced pass.

Three curves, each point through the public ``Service`` API:

- ``sweep.authorize_us.s<N>``: ``engine.authorize`` span of a permitted
  POLICY-EVAL, with N unrelated subjects added to both documents;
- ``sweep.tick_us.j<N>``: a ``TICK`` request with N finished jobs in the
  table, after they were submitted and run to completion;
- ``sweep.restart_s.e<N>``: ``Service`` construction over a generated
  event log of about N events (and its audit log).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import gen
from spans import SpanIndex, Tracer, median

AUTHORIZE_SUBJECTS = (1, 10, 100, 1000, 10000)
TICK_JOBS = (100, 1000, 10000)
RESTART_EVENTS = (1000, 10000, 100000)

SWEEP_METRICS = (
    [f"sweep.authorize_us.s{n}" for n in AUTHORIZE_SUBJECTS]
    + [f"sweep.tick_us.j{n}" for n in TICK_JOBS]
    + [f"sweep.restart_s.e{n}" for n in RESTART_EVENTS]
)


def _unrelated(n: int) -> str:
    return "".join(
        f"/O=Grid/O=Elsewhere/OU=org-{i % 50}/CN=member-{i}:\n"
        f"&(action = start)(executable = prog-{i})(jobtag = T{i})\n\n"
        for i in range(n))


def _repeat(call, min_reps=5, budget_s=0.3, max_reps=500):
    """Wall times (us) of repeated calls: at least ``min_reps``, then
    more until ``budget_s`` is spent."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or (len(times) < max_reps and time.perf_counter() < deadline):
        t0 = time.perf_counter_ns()
        call()
        times.append((time.perf_counter_ns() - t0) / 1e3)
    return times


def run_sweep(root: Path, work: Path, seed: int, deadline: float) -> tuple[dict, list]:
    """Sweep metrics, and notes on points skipped to finish by ``deadline``
    (a ``time.perf_counter()`` value); a skipped point is None."""
    from gridauthz.service import Service, ServiceConfig

    out: dict[str, float | None] = {m: None for m in SWEEP_METRICS}
    notes: list[str] = []
    ref = (root / "fixtures" / "reference.policy").read_text()
    line = (f"POLICY-EVAL dn={gen.q(gen.BO)} action=\"start\" rsl="
            f"{gen.q('&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)')}")
    tracer = Tracer(count_calls=False)
    tracer.install()
    try:
        for n in AUTHORIZE_SUBJECTS:
            extra = _unrelated(n)
            conf = gen.write_service_files(work / f"authorize-{n}", extra + ref, ref + extra,
                                           gen.fixture_gridmap(), 1)
            svc = Service(ServiceConfig.from_file(conf))
            try:
                first = svc.handle_request(line)
                if not first.startswith("OK PERMIT"):
                    raise RuntimeError(f"sweep POLICY-EVAL answered {first!r}")
                mark = tracer.mark()
                _repeat(lambda: svc.handle_request(line))
                out[f"sweep.authorize_us.s{n}"] = median(
                    SpanIndex(tracer.spans[mark:]).durations_us("engine.authorize", False))
            finally:
                svc.close()
    finally:
        tracer.uninstall()

    rng = random.Random(seed)
    for n in TICK_JOBS:
        conf = gen.write_service_files(work / f"tick-{n}", ref, ref, gen.fixture_gridmap(), n)
        svc = Service(ServiceConfig.from_file(conf))
        try:
            for _ in range(n):
                owner, rsl, _, _ = gen.fixture_start(rng)
                if not svc.handle_request(gen.submit_line(owner, rsl)).startswith("OK"):
                    raise RuntimeError("sweep SUBMIT was refused")
            svc.handle_request('TICK now="1"')  # dispatch every job
            svc.handle_request('TICK now="10"')  # and finish them
            now = iter(range(11, 10**9))
            out[f"sweep.tick_us.j{n}"] = median(
                _repeat(lambda: svc.handle_request(f'TICK now="{next(now)}"')))
        finally:
            svc.close()

    fx = (root / "fixtures" / "reference_extended.policy").read_text()
    took = 0.0
    for n in RESTART_EVENTS:
        if took and time.perf_counter() + took * 10 > deadline:
            notes.append(f"sweep.restart_s.e{n}: skipped, it would not finish in the time left")
            continue
        conf = gen.write_service_files(work / f"restart-{n}", fx, fx, gen.fixture_gridmap(), 8)
        gen.write_restart_log(rng, conf.parent / "audit.log", conf.parent / "events.log",
                              max(n // 3, 1))
        t0 = time.perf_counter()
        svc = Service(ServiceConfig.from_file(conf))
        took = time.perf_counter() - t0
        out[f"sweep.restart_s.e{n}"] = took
        svc.close()
    return out, notes
