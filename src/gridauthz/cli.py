"""Command line interface.

Single-shot commands (submit, cancel, signal, status, list) talk to a
running server over the configured endpoint.  ``policy check``,
``policy eval`` and ``simulate`` work offline against the files named
by the configuration.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from .engine import AuthorizationRequest, JobContext, authorize
from .policy import GridIdentity, PolicyError, lint_policy, parse_policy
from .rsl import JobDescription, RslError, apply_defaults, read_job_description
from .service import (ConfigError, Service, ServiceConfig, _q, explain, load_policies,
                      send_request)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridauthz")
    sub = parser.add_subparsers(dest="command")

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("serve", cmd_serve, help="run the line-protocol server")
    p.add_argument("--config", required=True)

    for name, func in (("submit", cmd_submit), ("cancel", cmd_cancel),
                       ("signal", cmd_signal), ("status", cmd_status),
                       ("list", cmd_list)):
        p = add(name, func, help=f"send a {name.upper()} request to the server")
        p.add_argument("--config", required=True)
        if name == "submit":
            p.add_argument("--dn", required=True)
            p.add_argument("--rsl", required=True)
        elif name == "list":
            p.add_argument("--jobtag")
            p.add_argument("--owner")
            p.add_argument("--state")
        else:
            p.add_argument("--dn", required=True)
            p.add_argument("--job", required=True)
            if name == "signal":
                p.add_argument("--kind", required=True,
                               choices=("suspend", "resume", "priority"))
                p.add_argument("--value", type=int)

    policy = sub.add_parser("policy", help="offline policy tooling")
    policy_sub = policy.add_subparsers(dest="policy_command")
    p = policy_sub.add_parser("check", help="parse and lint a policy file")
    p.set_defaults(func=cmd_policy_check)
    p.add_argument("file")
    p.add_argument("--source", default="LOCAL", choices=("LOCAL", "VO"))
    p = policy_sub.add_parser("eval", help="dry-run an authorization decision")
    p.set_defaults(func=cmd_policy_eval)
    p.add_argument("--config", required=True)
    p.add_argument("--dn", required=True)
    p.add_argument("--action", required=True,
                   choices=("start", "cancel", "information", "signal"))
    p.add_argument("--rsl", help=(
        "job RSL; a management action is evaluated against it (an empty "
        "description when omitted) and the placeholder job job-0, not a stored "
        "job: ask a running server POLICY-EVAL job=<id> about a stored job"))
    p.add_argument("--jobowner")
    p.add_argument("--jobtag")
    p.add_argument("--signal-kind")
    p.add_argument("--explain", action="store_true")

    p = add("simulate", cmd_simulate, help="run a scripted scenario in-process")
    p.add_argument("script")
    p.add_argument("--config", required=True)

    return parser


def _client(args, line: str) -> int:
    # a config that cannot be read, or no server at its endpoint: one line, exit 2
    try:
        endpoint = ServiceConfig.from_file(args.config).listen_endpoint
        response = send_request(endpoint, line)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot reach the server at {endpoint}: {e}", file=sys.stderr)
        return 2
    print(response)
    return 0 if response.startswith("OK") else 1


def cmd_serve(args) -> int:
    try:
        service = Service(ServiceConfig.from_file(args.config))
    except Exception as e:
        print(f"startup failure: {e}", file=sys.stderr)
        return 1
    for warning in service.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    started = len(service.warnings)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()  # which writes a checkpoint
        for warning in service.warnings[started:]:
            print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    return _client(args, f"SUBMIT dn={_q(args.dn)} rsl={_q(args.rsl)}")


def cmd_cancel(args) -> int:
    return _client(args, f"CANCEL dn={_q(args.dn)} job={_q(args.job)}")


def cmd_signal(args) -> int:
    line = f"SIGNAL dn={_q(args.dn)} job={_q(args.job)} kind={args.kind}"
    if args.kind == "priority":
        if args.value is None:
            print("signal priority needs --value", file=sys.stderr)
            return 2
        line += f" value={args.value}"
    return _client(args, line)


def cmd_status(args) -> int:
    return _client(args, f"STATUS dn={_q(args.dn)} job={_q(args.job)}")


def cmd_list(args) -> int:
    line = "LIST"
    if args.jobtag:
        line += f" jobtag={_q(args.jobtag)}"
    if args.owner:
        line += f" owner={_q(args.owner)}"
    if args.state:
        line += f" state={args.state}"
    return _client(args, line)


def cmd_policy_check(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        doc = parse_policy(text, args.source, args.file)
    except PolicyError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    warnings = lint_policy(doc)
    for w in warnings:
        print(f"warning: {w}")
    print(f"{args.file}: {len(doc.statements)} statements, {len(warnings)} warnings")
    return 0


def cmd_policy_eval(args) -> int:
    if args.action != "start" and not args.jobowner:
        print("management eval needs --jobowner", file=sys.stderr)
        return 2
    # what the server would answer E-SYNTAX or E-ERROR: one line, exit 2
    try:
        policies = load_policies(ServiceConfig.from_file(args.config))
        requester = GridIdentity.parse(args.dn)
        description = (read_job_description(args.rsl) if args.rsl
                       else apply_defaults(JobDescription()))
        jobowner = GridIdentity.parse(args.jobowner) if args.action != "start" else None
    except (ConfigError, PolicyError, RslError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.action == "start":
        req = AuthorizationRequest(requester, "start", description)
    else:
        req = AuthorizationRequest(
            requester, args.action, description,
            JobContext("job-0", jobowner, args.jobtag, args.signal_kind))
    decision, facts = authorize(*policies, req)
    if args.explain:
        print(explain(decision, facts))
    else:
        print(f"{decision.outcome.value} {decision.reason}".strip())
    return 0 if decision.is_permit else 1


def cmd_simulate(args) -> int:
    script_path = Path(args.script)
    try:
        lines = script_path.read_text().splitlines()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        config = ServiceConfig.from_file(args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # scenarios start from an empty store
    for log in (config.audit_log_path, config.event_log_path, config.checkpoint_path):
        if log.exists():
            log.unlink()
    service = None
    failures = 0
    try:
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("!copy "):
                _, src, dst = line.split()
                src_path = script_path.parent / src
                dst_path = script_path.parent / dst
                dst_path.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src_path, dst_path)
                print(f"# copied {src} -> {dst}")
                continue
            request, expected = line, None
            if " => " in line:
                request, _, expected = line.partition(" => ")
                request = request.strip()
                expected = expected.strip()
            if service is None:
                service = Service(config)
            response = service.handle_request(request)
            print(f"> {request}")
            print(f"< {response}")
            if expected is not None and not response.startswith(expected):
                print(f"! expected prefix: {expected}")
                failures += 1
    finally:
        if service is not None:
            service.close()
    if failures:
        print(f"{failures} expectation(s) failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
