"""Reference evaluator: every statement's subject tested, every rule regrouped,
every assertion put to the reference truth function ``evaluate_assertion``,
and every check recorded in an ``Explanation``.

This is the evaluator as it was before documents were indexed by subject and
rules compiled, kept as a differential oracle for
``gridauthz.engine.evaluate_document``.  ``explain_summary`` renders an
``Explanation`` as ``service.explain`` printed it when the engine still
built one.
"""

from dataclasses import dataclass
from typing import NamedTuple

from gridauthz.engine import AuthorizationRequest, _resolve, _statement_ref, deny, permit
from gridauthz.policy import StatementKind
from gridauthz.rsl import NULL, SELF, Relation, RslAssertion, Text, int_value, value_text


class RequirementCheck(NamedTuple):
    ref: str
    applies: bool
    held: bool
    failing: RslAssertion | None = None


class GrantCheck(NamedTuple):
    ref: str
    satisfied: bool
    failing: RslAssertion | None = None


@dataclass(frozen=True)
class Explanation:
    matched_requirements: tuple[RequirementCheck, ...] = ()
    matched_grants: tuple[GrantCheck, ...] = ()
    satisfying_grant: str | None = None


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
    """Total truth function for one assertion against one request: the
    reference the engine's compiled checks must agree with."""
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


def evaluate_rule(rule, req):
    by_attr = {}
    for a in rule.assertions:
        by_attr.setdefault(a.attribute, []).append(a)
    for asserts in by_attr.values():
        eqs = [a for a in asserts if a.relation is Relation.EQ and a.value is not NULL]
        others = [a for a in asserts if not (a.relation is Relation.EQ and a.value is not NULL)]
        if eqs and not any(evaluate_assertion(a, req) for a in eqs):
            return eqs[0]
        for a in others:
            if not evaluate_assertion(a, req):
                return a
    return None


def evaluate_document(doc, req):
    requester = req.requester.components
    requester_key = tuple((k.lower(), v) for k, v in requester)

    def matches(pattern):
        key = tuple((k.lower(), v) for k, v in pattern.prefix.components)
        return len(key) <= len(requester_key) and requester_key[: len(key)] == key

    matched = [(i, st) for i, st in enumerate(doc.statements) if matches(st.subject)]
    if not matched:
        return deny("no applicable statements"), Explanation()

    requirement_checks = []
    grant_checks = []
    failed_requirement = None
    satisfying = None
    for i, st in matched:
        ref = _statement_ref(doc, i, st)
        if st.kind is StatementKind.REQUIREMENT:
            action_asserts = [a for a in st.rule.assertions if a.attribute == "action"]
            applies = all(evaluate_assertion(a, req) for a in action_asserts)
            if not applies:
                requirement_checks.append(RequirementCheck(ref, False, True))
                continue
            failing = evaluate_rule(st.rule, req)
            requirement_checks.append(RequirementCheck(ref, True, failing is None, failing))
            if failing is not None and failed_requirement is None:
                failed_requirement = ref
        else:
            failing = evaluate_rule(st.rule, req)
            grant_checks.append(GrantCheck(ref, failing is None, failing))
            if failing is None and satisfying is None:
                satisfying = ref

    if failed_requirement is not None:
        decision = deny(f"requirement violated: {failed_requirement}", failed_requirement)
        satisfying = None
    elif satisfying is not None:
        decision = permit(satisfying)
    else:
        decision = deny("no grant satisfied")
    return decision, Explanation(tuple(requirement_checks), tuple(grant_checks), satisfying)


def explain_summary(expl: Explanation) -> str:
    if expl.satisfying_grant:
        return f"grant {expl.satisfying_grant}"
    for check in expl.matched_requirements:
        if check.applies and not check.held:
            failing = check.failing.render() if check.failing else "?"
            return f"requirement {check.ref} failed at {failing}"
    for check in expl.matched_grants:
        if not check.satisfied and check.failing is not None:
            return f"grant {check.ref} failed at {check.failing.render()}"
    return "no applicable statements"
