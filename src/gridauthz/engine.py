"""Policy evaluation point: default-deny evaluation and decision combining.

A request PERMITs against one document iff every applicable REQUIREMENT
statement holds and at least one GRANT statement is fully satisfied.
Within one rule, multiple '=' assertions on the same attribute form a
disjunctive value set; every other assertion conjoins.

One decision walks a plan: the compiled entries (``_compile_statement``)
of the requester's statements in document order, built on the requester's
first decision and kept in the document (``_plan``).  It runs their checks
against the request's attribute values, each resolved once per request,
stops at the first violated requirement, and returns the decision with the
one fact ``service.explain`` prints, nothing more.  The reference truth
function the compiled checks are tested against, and the evaluator that
records every check, live in ``tests/linear_evaluator.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .policy import MEMO_LIMIT, GridIdentity, PolicyDocument, PolicyStatement, StatementKind
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


class Decision(NamedTuple):
    outcome: Outcome
    reason: str = ""
    # what decided, as the audit record names it: GATE, SELF-RULE, PEP,
    # LOCAL-PEP, VO-PEP or CALLOUT; None for one document's decision
    source: str | None = None
    # the gridmap account or the statement ref(s) that decided, if any
    ref: str | None = None

    @property
    def is_permit(self) -> bool:
        return self.outcome is Outcome.PERMIT


def permit(ref: str | None = None) -> Decision:
    return Decision(Outcome.PERMIT, "", None, ref)


def deny(reason: str, ref: str | None = None) -> Decision:
    return Decision(Outcome.DENY, reason, None, ref)


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
    # attribute -> its values as _summarise gives them, filled as the
    # rules ask; both documents of one authorize call share it
    resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.action == "start" and self.job_context is not None:
            raise ValueError("start requests carry no job context")
        if self.action != "start" and self.job_context is None:
            raise ValueError(f"{self.action} requests need a job context")


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


def _statement_ref(doc: PolicyDocument, index: int, st: PolicyStatement) -> str:
    return f"{doc.source}#{index}@L{st.source_line}"


# Kinds of compiled check.  A check is a plain tuple (kind, attribute, data,
# assertion): ``data`` is the literal normalised once (see _equality_key)
# and ``assertion`` the one reported when the check fails.
#   EQ       some value's key is in the tuple ``data``
#   EQ_SELF  the same, or some value's key is the requester's DN
#   NEQ      no value's key is ``data``;  NEQ_SELF: none is the requester's DN
#   ABSENT   (= NULL) no value is non-empty;  PRESENT: (!= NULL) one is
#   LT GT LE GE  every value has integer content and compares so with the
#            integer ``data``; there is at least one value
#   NEVER    ordering against a literal without integer content
EQ, EQ_SELF, NEQ, NEQ_SELF, ABSENT, PRESENT, LT, GT, LE, GE, NEVER = range(11)
_ORDER_KINDS = {Relation.LT: LT, Relation.GT: GT, Relation.LE: LE, Relation.GE: GE}


def _equality_key(value) -> int | str:
    """A value's integer content when it has some, else its text.

    Two values are equal in a rule when both have integer content and the
    integers are equal ("007" = 7 = "+7"), or when either has none and the
    texts are equal.  Text without integer content never equals the text of
    a value with some, so that is exactly when their keys are equal: an int
    key never equals a str key.  A rendered DN starts with '/' (or is
    empty), so its key is its text.
    """
    n = int_value(value)
    return value_text(value) if n is None else n


def _compile_check(assertions: tuple[RslAssertion, ...]) -> tuple:
    """One check: a single assertion, or the '=' literals of one attribute."""
    first = assertions[0]
    relation, value = first.relation, first.value
    if value is NULL:
        kind, data = (ABSENT if relation is Relation.EQ else PRESENT), None
    elif relation is Relation.EQ:
        data = tuple(_equality_key(a.value) for a in assertions if a.value is not SELF)
        kind = EQ_SELF if any(a.value is SELF for a in assertions) else EQ
    elif relation is Relation.NEQ:
        kind, data = (NEQ_SELF, None) if value is SELF else (NEQ, _equality_key(value))
    else:  # ordering; OrderingOnSpecial keeps NULL and SELF out
        data = int_value(value)
        kind = NEVER if data is None else _ORDER_KINDS[relation]
    return (kind, first.attribute, data, first)


def _compile_rule(assertions: tuple[RslAssertion, ...]) -> tuple[tuple, ...]:
    """A rule's checks in evaluation order.  Per attribute, in order of first
    appearance: its '=' literals, which disjoin and make one check, then each
    of its other assertions, which conjoin."""
    by_attr: dict[str, list[RslAssertion]] = {}
    for a in assertions:
        by_attr.setdefault(a.attribute, []).append(a)
    checks = []
    for asserts in by_attr.values():
        eqs = tuple(a for a in asserts if a.relation is Relation.EQ and a.value is not NULL)
        if eqs:
            checks.append(_compile_check(eqs))
        checks.extend(_compile_check((a,)) for a in asserts if a not in eqs)
    return tuple(checks)


def _compile_statement(doc: PolicyDocument, index: int, st: PolicyStatement):
    """(ref, is a REQUIREMENT, action checks, rule checks), kept in the document.

    Built the first time a decision reads the statement, not at parse time:
    a decision reads only its requester's statements, and a large document
    parses as fast as before.  A REQUIREMENT applies when all its action
    checks, one per 'action' assertion, hold.
    """
    entry = doc.compiled[index] = (
        _statement_ref(doc, index, st), st.kind is StatementKind.REQUIREMENT,
        tuple(_compile_check((a,)) for a in st.actions), _compile_rule(st.rule.assertions))
    return entry


_UNRESOLVED = object()


def _summarise(values):
    """What the compiled checks read of an attribute's values, or None when
    it has none: (the frozenset of their keys as ``_equality_key`` makes
    them, whether one is non-empty, the least and the greatest integer when
    every value has one, else None twice)."""
    if values is None:
        return None
    keys = []
    present = False
    ints = []
    for v in values:
        n = int_value(v)
        if n is None:
            text = value_text(v)
            keys.append(text)
            present = present or text != ""
        else:
            keys.append(n)
            ints.append(n)
            present = True
    if ints and len(ints) == len(keys):
        return frozenset(keys), present, min(ints), max(ints)
    return frozenset(keys), present, None, None


def _first_failing(checks, req: AuthorizationRequest):
    """The assertion of the first compiled check that fails, or None when
    all hold.  Each attribute is resolved once per request."""
    values = req.resolved
    for kind, attribute, data, assertion in checks:
        got = values.get(attribute, _UNRESOLVED)
        if got is _UNRESOLVED:
            got = values[attribute] = _summarise(_resolve(attribute, req))
        if got is None:
            if kind == NEQ or kind == NEQ_SELF or kind == ABSENT:
                continue
            return assertion
        if kind == EQ:
            held = not got[0].isdisjoint(data)
        elif kind == PRESENT:
            held = got[1]
        elif kind == LT:
            held = got[3] is not None and got[3] < data
        elif kind == NEQ:
            held = data not in got[0]
        elif kind == ABSENT:
            held = not got[1]
        elif kind == LE:
            held = got[3] is not None and got[3] <= data
        elif kind == GT:
            held = got[2] is not None and got[2] > data
        elif kind == GE:
            held = got[2] is not None and got[2] >= data
        elif kind == EQ_SELF:
            held = req.requester.render() in got[0] or not got[0].isdisjoint(data)
        elif kind == NEQ_SELF:
            held = req.requester.render() not in got[0]
        else:  # NEVER
            held = False
        if not held:
            return assertion
    return None


def _plan(doc: PolicyDocument, requester: GridIdentity) -> tuple[tuple, ...]:
    """The compiled entries of the requester's statements, in document order,
    kept in the document's plan memo under the requester's key.  The memo is
    emptied when it reaches ``MEMO_LIMIT``: requests may name any DN."""
    plans = doc.plans
    if len(plans) >= MEMO_LIMIT:
        plans.clear()
    compiled = doc.compiled
    plan = plans[requester.key()] = tuple(
        compiled.get(i) or _compile_statement(doc, i, st)
        for i, st in doc.statements_for(requester))
    return plan


def evaluate_document(doc: PolicyDocument, req: AuthorizationRequest):
    """Evaluate one request against one document.  Default deny.

    Returns the decision and what ``service.explain`` prints of it:
    ``(what, ref, failing assertion or None)`` naming the satisfying grant,
    the first violated requirement or else the first failing grant, or None
    when no statement says anything.
    """
    plan = doc.plans.get(req.requester.key())
    if plan is None:
        plan = _plan(doc, req.requester)
    if not plan:
        return deny("no applicable statements"), None
    satisfying = failed_grant = None
    for ref, requirement, action_checks, checks in plan:
        if requirement:
            if _first_failing(action_checks, req) is None:
                failing = _first_failing(checks, req)
                if failing is not None:
                    return (deny(f"requirement violated: {ref}", ref),
                            ("requirement", ref, failing))
        elif satisfying is None:
            failing = _first_failing(checks, req)
            if failing is None:
                satisfying = ref
            elif failed_grant is None:
                failed_grant = ("grant", ref, failing)
    if satisfying is not None:
        return permit(satisfying), ("grant", satisfying, None)
    return deny("no grant satisfied"), failed_grant


def combine_decisions(local: Decision, vo: Decision) -> Decision:
    """Conjunction of the two PEP decisions; ERROR dominates DENY.

    A DENY names the document that denied and carries its ref; a PERMIT
    carries both documents' satisfying grants.
    """
    if local.outcome is Outcome.ERROR or vo.outcome is Outcome.ERROR:
        details = [d.reason for d in (local, vo) if d.outcome is Outcome.ERROR]
        return error("; ".join(details))
    if local.outcome is Outcome.DENY:
        return Decision(Outcome.DENY, f"LOCAL: {local.reason}", "LOCAL-PEP", local.ref)
    if vo.outcome is Outcome.DENY:
        return Decision(Outcome.DENY, f"VO: {vo.reason}", "VO-PEP", vo.ref)
    return Decision(Outcome.PERMIT, "", "PEP", f"{local.ref}+{vo.ref}")


def authorize(local_doc: PolicyDocument, vo_doc: PolicyDocument, req: AuthorizationRequest):
    """Evaluate against both documents and combine; returns what each
    document's evaluation names for ``service.explain``."""
    local_decision, local_fact = evaluate_document(local_doc, req)
    vo_decision, vo_fact = evaluate_document(vo_doc, req)
    return combine_decisions(local_decision, vo_decision), (local_fact, vo_fact)
