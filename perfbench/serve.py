"""Launch ``gridauthz serve`` for the wire workload.

    python3 perfbench/serve.py --config <service.conf> --snapshot <file> [--spans <file>]

Runs the real command line entry point (``gridauthz.cli.main``).  On
SIGTERM the server shuts down as it does on Ctrl-C; the launcher then
writes the live ``JobManager.snapshot()`` (for the replay check) and,
with ``--spans``, the spans recorded by the same wrappers the in-process
runs use.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from gridauthz import cli, service as service_module

    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    served = []
    serve_forever = service_module.Service.serve_forever

    def keep(self):
        served.append(self)
        return serve_forever(self)

    service_module.Service.serve_forever = keep

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    code = cli.main(["serve", "--config", args.config])
    if served:
        Path(args.snapshot).write_text(served[0].jobmanager.snapshot())
    if tracer is not None:
        tracer.uninstall()
        Path(args.spans).write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing}))
    return code


if __name__ == "__main__":
    sys.exit(main())
