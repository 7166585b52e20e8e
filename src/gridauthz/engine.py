"""Policy evaluation point: default-deny evaluation and decision combining.

A request PERMITs against one document iff every applicable REQUIREMENT
statement holds and at least one GRANT statement is fully satisfied.
Within one rule, multiple '=' assertions on the same attribute form a
disjunctive value set; every other assertion conjoins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .policy import GridIdentity, PolicyDocument, PolicyStatement, StatementKind
from .rsl import (
    NULL,
    Relation,
    RslAssertion,
    SELF,
    JobDescription,
    Text,
    int_value,
    value_text,
)

ACTIONS = ("start", "cancel", "information", "signal")
MANAGEMENT_ACTIONS = ("cancel", "information", "signal")


class Outcome(Enum):
    PERMIT = "PERMIT"
    DENY = "DENY"
    ERROR = "ERROR"


@dataclass(frozen=True)
class Decision:
    outcome: Outcome
    reason: str = ""

    @property
    def is_permit(self) -> bool:
        return self.outcome is Outcome.PERMIT


def permit() -> Decision:
    return Decision(Outcome.PERMIT)


def deny(reason: str) -> Decision:
    return Decision(Outcome.DENY, reason)


def error(detail: str) -> Decision:
    return Decision(Outcome.ERROR, detail)


@dataclass(frozen=True)
class JobContext:
    job_id: str
    jobowner: GridIdentity
    jobtag: str | None = None
    signal_kind: str | None = None


@dataclass(frozen=True)
class AuthorizationRequest:
    requester: GridIdentity
    action: str
    description: JobDescription
    job_context: JobContext | None = None

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.action == "start" and self.job_context is not None:
            raise ValueError("start requests carry no job context")
        if self.action != "start" and self.job_context is None:
            raise ValueError(f"{self.action} requests need a job context")


@dataclass(frozen=True)
class RequirementCheck:
    ref: str
    applies: bool
    held: bool
    failing: RslAssertion | None = None


@dataclass(frozen=True)
class GrantCheck:
    ref: str
    satisfied: bool
    failing: RslAssertion | None = None


@dataclass(frozen=True)
class Explanation:
    matched_requirements: tuple[RequirementCheck, ...] = ()
    matched_grants: tuple[GrantCheck, ...] = ()
    satisfying_grant: str | None = None


def _resolve(attribute: str, req: AuthorizationRequest):
    """Values an assertion's attribute takes for this request, or None."""
    jc = req.job_context
    if attribute == "action":
        return (Text(req.action),)
    if attribute == "jobowner":
        if jc is None:
            return None
        return (Text(jc.jobowner.render()),)
    if attribute == "jobtag":
        if req.action == "start":
            return req.description.get("jobtag")
        if jc is not None and jc.jobtag is not None:
            return (Text(jc.jobtag),)
        return None
    if attribute == "signal":
        if jc is not None and jc.signal_kind is not None:
            return (Text(jc.signal_kind),)
        return None
    return req.description.get(attribute)


def _nonempty(value) -> bool:
    return value_text(value) != ""


def _values_equal(a, b) -> bool:
    na, nb = int_value(a), int_value(b)
    if na is not None and nb is not None:
        return na == nb
    return value_text(a) == value_text(b)


_ORDER_OPS = {
    Relation.LT: lambda a, b: a < b,
    Relation.GT: lambda a, b: a > b,
    Relation.LE: lambda a, b: a <= b,
    Relation.GE: lambda a, b: a >= b,
}


def evaluate_assertion(a: RslAssertion, req: AuthorizationRequest) -> bool:
    """Total truth function for one assertion against one request."""
    values = _resolve(a.attribute, req)
    if a.value is NULL:
        present = values is not None and any(_nonempty(v) for v in values)
        if a.relation is Relation.EQ:
            return not present
        if a.relation is Relation.NEQ:
            return present
        return False  # unreachable: ordering on NULL is rejected at parse
    literal = Text(req.requester.render()) if a.value is SELF else a.value
    if a.relation is Relation.EQ:
        return values is not None and any(_values_equal(v, literal) for v in values)
    if a.relation is Relation.NEQ:
        if values is None:
            return True
        return all(not _values_equal(v, literal) for v in values)
    bound = int_value(literal)
    if bound is None or values is None or not values:
        return False
    op = _ORDER_OPS[a.relation]
    for v in values:
        n = int_value(v)
        if n is None or not op(n, bound):
            return False
    return True


def _evaluate_rule(st: PolicyStatement, req: AuthorizationRequest):
    """First failing assertion of a statement's rule, or None when it holds.

    '=' assertions with a plain literal disjoin per attribute; everything
    else (including presence checks against NULL) conjoins.
    """
    for check in st.checks:
        if isinstance(check, tuple):  # '=' literals on one attribute
            if not any(evaluate_assertion(a, req) for a in check):
                return check[0]
        elif not evaluate_assertion(check, req):
            return check
    return None


def _statement_ref(doc: PolicyDocument, index: int, st: PolicyStatement) -> str:
    return f"{doc.source}#{index}@L{st.source_line}"


def evaluate_document(doc: PolicyDocument, req: AuthorizationRequest):
    """Evaluate one request against one document.  Default deny."""
    matched = doc.statements_for(req.requester)
    if not matched:
        return deny("no applicable statements"), Explanation()

    requirement_checks = []
    grant_checks = []
    failed_requirement = None
    satisfying = None
    for i, st in matched:
        ref = _statement_ref(doc, i, st)
        if st.kind is StatementKind.REQUIREMENT:
            applies = all(evaluate_assertion(a, req) for a in st.actions)
            if not applies:
                requirement_checks.append(RequirementCheck(ref, False, True))
                continue
            failing = _evaluate_rule(st, req)
            requirement_checks.append(RequirementCheck(ref, True, failing is None, failing))
            if failing is not None and failed_requirement is None:
                failed_requirement = ref
        else:
            failing = _evaluate_rule(st, req)
            grant_checks.append(GrantCheck(ref, failing is None, failing))
            if failing is None and satisfying is None:
                satisfying = ref

    if failed_requirement is not None:
        decision = deny(f"requirement violated: {failed_requirement}")
        satisfying = None
    elif satisfying is not None:
        decision = permit()
    else:
        decision = deny("no grant satisfied")
    explanation = Explanation(
        tuple(requirement_checks), tuple(grant_checks), satisfying
    )
    return decision, explanation


def combine_decisions(local: Decision, vo: Decision) -> Decision:
    """Conjunction of the two PEP decisions; ERROR dominates DENY."""
    if local.outcome is Outcome.ERROR or vo.outcome is Outcome.ERROR:
        details = [d.reason for d in (local, vo) if d.outcome is Outcome.ERROR]
        return error("; ".join(details))
    if local.outcome is Outcome.DENY:
        return deny(f"LOCAL: {local.reason}")
    if vo.outcome is Outcome.DENY:
        return deny(f"VO: {vo.reason}")
    return permit()


def authorize(local_doc: PolicyDocument, vo_doc: PolicyDocument, req: AuthorizationRequest):
    """Evaluate against both documents and combine; returns both explanations."""
    local_decision, local_expl = evaluate_document(local_doc, req)
    vo_decision, vo_expl = evaluate_document(vo_doc, req)
    return combine_decisions(local_decision, vo_decision), (local_expl, vo_expl)
