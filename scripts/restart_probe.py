"""Time a service start over the logs of 5000 finished jobs, with and
without a checkpoint, and a close after 5000 live SUBMITs.

Writes the audit and event logs of the benchmark's ``job-churn`` set-up
(``perfbench/gen.py``'s ``write_restart_log``, seed 1, 5000 jobs) next to
the extended reference policy, then times:

- a start with no checkpoint, ``Service(...)``, which counts the audit
  log and replays the event log; each of those two parts on its own;
- the checkpoint write that ``Service.close`` does after such a start;
- a start from that checkpoint, which replays nothing;
- ``Service.close`` on a fresh service after 5000 live SUBMITs of the
  fixtures' permitted starts: the checkpoint write over jobs that were
  submitted live rather than restored.

Each time is the best of five.  Exits 1 if the two starts give different
job tables, or if a start from the checkpoint that close wrote and a full
replay of the same logs do not both give the live table.

    PYTHONPATH=src python scripts/restart_probe.py
"""

import gc
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from gridauthz.jobmanager import JobManager, JobManagerConfig  # noqa: E402
from gridauthz.service import (  # noqa: E402
    AuditLog, Service, ServiceConfig, read_event_log, replay_events)

SEED = 1
JOBS = 5000
PASSES = 5


def best_ms(work, prepare=lambda: None) -> float:
    best = float("inf")
    for _ in range(PASSES):
        prepare()
        gc.collect()
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def best_start_ms(config, prepare) -> tuple[float, Service]:
    """The best of five ``Service(config)`` times, each service closed
    after it is timed; and the last service."""
    best = float("inf")
    for _ in range(PASSES):
        prepare()
        gc.collect()
        t0 = time.perf_counter()
        service = Service(config)
        best = min(best, time.perf_counter() - t0)
        service.close()
    return best * 1e3, service


def live_close_ms(work: Path, policy: str) -> tuple[float, Service]:
    """The best of five ``close()`` times, each of a fresh service after
    JOBS live SUBMITs; and the last service."""
    conf = gen.write_service_files(work, policy, policy, gen.fixture_gridmap(),
                                   gen.CHURN_SLOTS)
    config = ServiceConfig.from_file(conf)
    best = float("inf")
    for _ in range(PASSES):
        for path in (config.audit_log_path, config.event_log_path, config.checkpoint_path):
            path.unlink(missing_ok=True)
        service = Service(config)
        rng = random.Random(SEED)
        for n in range(1, JOBS + 1):
            owner, rsl, _, _ = gen.fixture_start(rng)
            assert service.handle_request(gen.submit_line(owner, rsl)) == f"OK job-{n} PENDING"
        gc.collect()
        t0 = time.perf_counter()
        service.close()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, service


def restarts_agree(live: Service) -> bool:
    """A start from the checkpoint ``live``'s close wrote, and a full replay
    of the same logs, both give ``live``'s job table."""
    config = live.config
    tables = []
    for _ in ("from the checkpoint", "from the logs alone"):
        restarted = Service(config)
        restarted.close()
        config.checkpoint_path.unlink()
        tables.append(restarted.jobmanager.snapshot() if not restarted.warnings else None)
    return tables == [live.jobmanager.snapshot()] * 2


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        policy = (ROOT / "fixtures" / "reference_extended.policy").read_text()
        conf = gen.write_service_files(work, policy, policy, gen.fixture_gridmap(),
                                       gen.CHURN_SLOTS)
        audit, events = work / "audit.log", work / "events.log"
        gen.write_restart_log(random.Random(SEED), audit, events, JOBS)
        config = ServiceConfig.from_file(conf)
        forget = lambda: config.checkpoint_path.unlink(missing_ok=True)  # noqa: E731
        full_ms, full = best_start_ms(config, forget)
        audit_ms = best_ms(lambda: AuditLog(audit).close())
        replay_ms = best_ms(lambda: replay_events(
            read_event_log(events), JobManager(None, JobManagerConfig(slots=config.slots))))
        write_ms = best_ms(full.checkpoint)
        checkpointed_ms, restored = best_start_ms(config, lambda: None)
        close_ms, live = live_close_ms(work / "live", policy)
        live_agrees = restarts_agree(live)
    same = restored.jobmanager.snapshot() == full.jobmanager.snapshot()
    print(f"restart: {JOBS} jobs ({full.audit_log.sequence} audit records, "
          f"{full.event_log.sequence} events), best of {PASSES}:\n"
          f"  start without a checkpoint {full_ms:.1f} ms (audit open {audit_ms:.1f} ms, "
          f"replay {replay_ms:.1f} ms)\n"
          f"  checkpoint write at close {write_ms:.1f} ms\n"
          f"  start from the checkpoint {checkpointed_ms:.1f} ms\n"
          f"  close after {JOBS} live SUBMITs (checkpoint write) {close_ms:.1f} ms")
    if full.warnings or restored.warnings or not same:
        print(f"the two starts differ: same table {same}, warnings "
              f"{full.warnings + restored.warnings}")
        return 1
    if not live_agrees:
        print("a start from the checkpoint of live-submitted jobs, or a full replay "
              "of their logs, does not give the live table")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
