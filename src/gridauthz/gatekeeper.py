"""Gatekeeper: gridmap access control, account mapping, and job admission.

The gridmap is an exact-identity access control list; the policy PEP is
consulted only after the gridmap gate passes, so a gate denial never
reaches the callout layer.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

from .callout import CalloutArgs, CalloutOutcome, Callouts, CalloutResult, GRAM_AUTHZ
from .engine import Decision, Outcome
from . import callout as _callout
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
    def __init__(self, reason: str, result: CalloutResult | None = None):
        self.reason = reason
        self.result = result
        super().__init__(reason)


class PolicyFailure(Exception):
    def __init__(self, detail: str, result: CalloutResult | None = None):
        self.detail = detail
        self.result = result
        super().__init__(detail)


@dataclass(frozen=True)
class GridmapEntry:
    identity: GridIdentity
    account: str


@dataclass(frozen=True)
class Gridmap:
    entries: tuple[GridmapEntry, ...]
    warnings: tuple[str, ...] = ()
    accounts: dict[GridIdentity, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        accounts: dict[GridIdentity, str] = {}
        for entry in self.entries:
            accounts.setdefault(entry.identity, entry.account)
        object.__setattr__(self, "accounts", accounts)

    def lookup(self, identity: GridIdentity):
        return self.accounts.get(identity)


def parse_gridmap(text: str) -> Gridmap:
    """One entry per line: a double-quoted DN then a local account name."""
    entries: list[GridmapEntry] = []
    warnings: list[str] = []
    seen: set = set()
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
        if identity in seen:
            warnings.append(f"line {lineno}: duplicate entry for {identity.render()} ignored")
            continue
        seen.add(identity)
        entries.append(GridmapEntry(identity, rest[0]))
    return Gridmap(tuple(entries), tuple(warnings))


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
    result: CalloutResult
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
            audit("GATE", requester, "start", None,
                  Decision(Outcome.DENY, "not in gridmap"), None)
        raise
    if audit:
        audit("GATE", requester, "start", None, Decision(Outcome.PERMIT), account)
    args = CalloutArgs(requester=requester, action="start", description=description)
    result = callouts.invoke(GRAM_AUTHZ, args)
    decision = _callout.decision_of(result)
    if audit:
        audit("PEP", requester, "start", None, decision, _audit_ref(result))
    if result.outcome is CalloutOutcome.DENIED:
        raise PolicyDenied(result.reason, result)
    if result.outcome is CalloutOutcome.SYSTEM_FAILURE:
        raise PolicyFailure(result.reason, result)
    return AdmissionTicket(
        ticket_id=uuid.uuid4().hex,
        requester=requester,
        account=account,
        description=description,
        decision=decision,
        result=result,
    )


def _audit_ref(result: CalloutResult):
    if result.explanations:
        local_expl, vo_expl = result.explanations
        if local_expl.satisfying_grant and vo_expl.satisfying_grant:
            return f"{local_expl.satisfying_grant}+{vo_expl.satisfying_grant}"
        for expl in (local_expl, vo_expl):
            for check in expl.matched_requirements:
                if check.applies and not check.held:
                    return check.ref
    return None
