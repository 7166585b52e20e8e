"""Time a service start over the logs of 5000 finished jobs.

Writes the audit and event logs of the benchmark's ``job-churn`` set-up
(``perfbench/gen.py``'s ``write_restart_log``, seed 1, 5000 jobs) next to
the extended reference policy, then times ``Service(...)``, which counts
the audit log and replays the event log, and each of those two parts on
its own.  Each time is the best of five.

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


def best_ms(work) -> float:
    best = float("inf")
    for _ in range(PASSES):
        gc.collect()
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        policy = (ROOT / "fixtures" / "reference_extended.policy").read_text()
        conf = gen.write_service_files(work, policy, policy, gen.fixture_gridmap(),
                                       gen.CHURN_SLOTS)
        audit, events = work / "audit.log", work / "events.log"
        gen.write_restart_log(random.Random(SEED), audit, events, JOBS)
        config = ServiceConfig.from_file(conf)
        start_ms = best_ms(lambda: Service(config).close())
        audit_ms = best_ms(lambda: AuditLog(audit).close())
        replay_ms = best_ms(lambda: replay_events(
            read_event_log(events), JobManager(None, JobManagerConfig(slots=config.slots))))
        service = Service(config)
        service.close()
    print(f"restart: {JOBS} jobs ({service.audit_log.sequence} audit records, "
          f"{service.event_log.sequence} events), start {start_ms:.1f} ms "
          f"(audit open {audit_ms:.1f} ms, replay {replay_ms:.1f} ms), best of {PASSES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
