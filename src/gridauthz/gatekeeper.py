"""Gatekeeper: gridmap access control, account mapping, and job admission.

The gridmap is an exact-identity access control list; the policy PEP is
consulted only after the gridmap gate passes, so a gate denial never
reaches the callout layer.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass

from .callout import CalloutArgs, Callouts, GRAM_AUTHZ
from .engine import Decision, Outcome
from .policy import GridIdentity, IdentitySyntaxError
from .rsl import (JobDescription, RepeatedAttribute, apply_defaults, parse_rsl,
                  to_job_description)

# a job has one of each; a second value would be admitted under one reading
# of the request and managed under another
SINGLE_VALUED = ("executable", "directory", "count", "jobtag", "maxtime")


class GridmapSyntaxError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NotAuthorized(Exception):
    def __init__(self, identity: GridIdentity):
        self.identity = identity
        super().__init__(f"identity not in gridmap: {identity.render()}")


class PolicyDenied(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class PolicyFailure(Exception):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


def require_permit(decision: Decision):
    """Raise PolicyDenied / PolicyFailure unless the decision is a PERMIT."""
    if decision.outcome is Outcome.DENY:
        raise PolicyDenied(decision.reason)
    if decision.outcome is Outcome.ERROR:
        raise PolicyFailure(decision.reason)


@dataclass(frozen=True)
class Gridmap:
    # identity -> local account; the first entry for an identity wins
    accounts: dict[GridIdentity, str]
    warnings: tuple[str, ...] = ()

    def lookup(self, identity: GridIdentity):
        return self.accounts.get(identity)


def parse_gridmap(text: str) -> Gridmap:
    """One entry per line: a double-quoted DN then a local account name."""
    accounts: dict[GridIdentity, str] = {}
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith('"'):
            raise GridmapSyntaxError(lineno, "entry must start with a quoted DN")
        end = line.find('"', 1)
        if end < 0:
            raise GridmapSyntaxError(lineno, "unterminated quote")
        dn_text = line[1:end]
        rest = line[end + 1 :].split()
        if len(rest) != 1:
            raise GridmapSyntaxError(lineno, "expected exactly one account name after the DN")
        try:
            identity = GridIdentity.parse(dn_text)
        except IdentitySyntaxError as e:
            raise GridmapSyntaxError(lineno, str(e)) from e
        if identity in accounts:
            warnings.append(f"line {lineno}: duplicate entry for {identity.render()} ignored")
            continue
        accounts[identity] = rest[0]
    return Gridmap(accounts, tuple(warnings))


def authorize_and_map(gridmap: Gridmap, identity: GridIdentity) -> str:
    """Exact-match lookup; raising NotAuthorized is the coarse gate denial."""
    account = gridmap.lookup(identity)
    if account is None:
        raise NotAuthorized(identity)
    return account


@dataclass
class AdmissionTicket:
    ticket_id: str
    requester: GridIdentity
    account: str
    description: JobDescription
    decision: Decision
    # set by the job manager: a ticket admits one job
    submitted: bool = False


def admit(
    gridmap: Gridmap,
    callouts: Callouts,
    requester: GridIdentity,
    rsl_text: str,
    audit=None,
) -> AdmissionTicket:
    """Full admission pipeline for a start request.

    Raises RslSyntaxError and friends on malformed RSL, NotAuthorized on
    a gridmap miss, PolicyDenied / PolicyFailure on the PEP outcome.
    """
    description = apply_defaults(to_job_description(parse_rsl(rsl_text)))
    for name in SINGLE_VALUED:
        if len(description.get(name) or ()) > 1:
            raise RepeatedAttribute(name)
    try:
        account = authorize_and_map(gridmap, requester)
    except NotAuthorized:
        if audit:
            audit(requester, "start", None, Decision(Outcome.DENY, "not in gridmap", "GATE"))
        raise
    if audit:
        audit(requester, "start", None, Decision(Outcome.PERMIT, "", "GATE", account))
    args = CalloutArgs(requester=requester, action="start", description=description)
    decision = callouts.invoke(GRAM_AUTHZ, args).decision
    if audit:
        audit(requester, "start", None, decision)
    require_permit(decision)
    return AdmissionTicket(
        ticket_id=uuid.uuid4().hex,
        requester=requester,
        account=account,
        description=description,
        decision=decision,
    )
