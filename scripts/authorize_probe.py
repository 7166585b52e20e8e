"""Time ``engine.authorize`` alone over the calls of a large-vo request stream.

Runs 4000 requests of the benchmark's ``large-vo`` workload (seed 1,
inputs from ``perfbench/gen.py``) through an in-process ``Service`` and
records the arguments of every ``authorize`` call they make.  Then it calls
``authorize`` again on each recorded request, untraced, clearing the
request's resolved attributes first so that each call looks its attributes
up as a fresh request does, and prints the time per call: the best of five
passes.  The documents keep what the run left in them, as a running
server's do.

    PYTHONPATH=src python scripts/authorize_probe.py
"""

import itertools
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from gridauthz import engine, service  # noqa: E402
from gridauthz.service import Service, ServiceConfig  # noqa: E402

SEED = 1
REQUESTS = 4000
PASSES = 5


def capture(work: Path) -> list[tuple]:
    """The (local, vo, request) of each authorize call the requests make."""
    vo = gen.LargeVO(random.Random(SEED))
    conf = gen.write_service_files(work, vo.local_policy(), vo.vo_policy(), vo.gridmap(), 64)
    calls = []
    original = engine.authorize

    def recording(local_doc, vo_doc, req):
        calls.append((local_doc, vo_doc, req))
        return original(local_doc, vo_doc, req)

    # the callout reads engine.authorize, POLICY-EVAL the name service imported
    engine.authorize = service.authorize = recording
    svc = Service(ServiceConfig.from_file(conf))
    try:
        for request in itertools.islice(vo.stream(gen.stream_rng(SEED)), REQUESTS):
            svc.handle_request(request.line)
    finally:
        engine.authorize = service.authorize = original
        svc.close()
    return calls


def best_pass_us(calls: list[tuple]) -> float:
    authorize, clock = engine.authorize, time.perf_counter
    best = float("inf")
    for _ in range(PASSES):
        elapsed = 0.0
        for local_doc, vo_doc, req in calls:
            req.resolved.clear()
            t0 = clock()
            authorize(local_doc, vo_doc, req)
            elapsed += clock() - t0
        best = min(best, elapsed)
    return best / len(calls) * 1e6


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        calls = capture(Path(work))
    print(f"authorize: {len(calls)} calls from {REQUESTS} large-vo requests (seed {SEED}), "
          f"{best_pass_us(calls):.1f} us per call, best of {PASSES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
