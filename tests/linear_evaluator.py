"""Reference evaluator: every statement's subject tested, every rule regrouped.

This is the evaluator as it was before documents were indexed by subject,
kept as a differential oracle for ``gridauthz.engine.evaluate_document``.
"""

from gridauthz.engine import (
    Explanation,
    GrantCheck,
    RequirementCheck,
    _statement_ref,
    deny,
    evaluate_assertion,
    permit,
)
from gridauthz.policy import StatementKind
from gridauthz.rsl import NULL, Relation


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
