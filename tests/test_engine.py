import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridauthz.engine import (
    AuthorizationRequest,
    Decision,
    JobContext,
    Outcome,
    _compile_rule,
    _first_failing,
    authorize,
    combine_decisions,
    deny,
    error,
    evaluate_document,
    permit,
)
from gridauthz.policy import (
    GridIdentity,
    PolicyDocument,
    PolicyStatement,
    StatementKind,
    SubjectPattern,
    empty_document,
    parse_policy,
)
from gridauthz.rsl import (
    NULL,
    SELF,
    Integer,
    JobDescription,
    Relation,
    RslAssertion,
    RslConjunction,
    Text,
    parse_rsl,
)

import linear_evaluator
from gridauthz.service import _explain_summary
from linear_evaluator import evaluate_assertion
from conftest import (
    BO_DN,
    KATE_DN,
    STRANGER_DN,
    management_request,
    random_document,
    random_request,
    random_rule,
    start_request,
)


def first_assertion(text):
    return parse_rsl(text).assertions[0]


class TestEvaluateAssertion:
    def test_jobtag_not_null_with_tagged_start(self, bo):
        req = start_request(bo, "&(executable=test1)(jobtag=ADS)")
        assert evaluate_assertion(first_assertion("(jobtag != NULL)"), req)

    def test_jobtag_not_null_without_tag(self, bo):
        req = start_request(bo, "&(executable=test1)")
        assert not evaluate_assertion(first_assertion("(jobtag != NULL)"), req)

    def test_count_ordering(self, bo):
        lt4 = first_assertion("(count < 4)")
        assert not evaluate_assertion(lt4, start_request(bo, "&(count=4)"))
        assert evaluate_assertion(lt4, start_request(bo, "&(count=3)"))

    def test_ordering_false_when_absent(self, bo):
        req = start_request(bo, "&(executable=x)")
        # apply_defaults inserted count=1, so probe a different attribute
        assert not evaluate_assertion(first_assertion("(maxtime < 100)"), req)

    def test_jobowner_self(self, bo, kate):
        a = first_assertion("(jobowner = SELF)")
        assert evaluate_assertion(a, management_request(bo, "cancel", bo, None))
        assert not evaluate_assertion(a, management_request(kate, "cancel", bo, None))

    def test_jobowner_absent_for_start(self, bo):
        a = first_assertion("(jobowner = SELF)")
        assert not evaluate_assertion(a, start_request(bo, "&(executable=x)"))

    def test_eq_null_means_absent(self, bo):
        a = first_assertion("(queue = NULL)")
        assert evaluate_assertion(a, start_request(bo, "&(executable=x)"))
        assert not evaluate_assertion(a, start_request(bo, "&(queue=fast)"))

    def test_eq_null_treats_empty_as_absent(self, bo):
        a = first_assertion("(queue = NULL)")
        assert evaluate_assertion(a, start_request(bo, '&(queue="")'))

    def test_multivalued_eq_and_neq(self, bo):
        req = start_request(bo, "&(arg=a)(arg=b)")
        assert evaluate_assertion(first_assertion("(arg = b)"), req)
        assert not evaluate_assertion(first_assertion("(arg != b)"), req)
        assert evaluate_assertion(first_assertion("(arg != c)"), req)

    def test_eq_neq_against_absent_attribute(self, bo):
        req = start_request(bo, "&(executable=x)")
        assert not evaluate_assertion(first_assertion("(queue = fast)"), req)
        assert evaluate_assertion(first_assertion("(queue != fast)"), req)

    def test_numeric_equality_crosses_representations(self, bo):
        req = start_request(bo, "&(count=4)")
        assert evaluate_assertion(first_assertion('(count = "4")'), req)

    def test_action_resolution(self, bo):
        req = management_request(bo, "cancel", bo, "NFC")
        assert evaluate_assertion(first_assertion("(action = cancel)"), req)
        assert not evaluate_assertion(first_assertion("(action = start)"), req)

    def test_signal_kind_resolution(self, bo, kate):
        req = management_request(kate, "signal", bo, "NFC", signal_kind="suspend")
        assert evaluate_assertion(first_assertion("(signal = suspend)"), req)
        assert not evaluate_assertion(first_assertion("(signal = resume)"), req)

    def test_management_jobtag_comes_from_job_context(self, bo, kate):
        req = management_request(kate, "cancel", bo, "NFC",
                                 description=start_request(bo, "&(jobtag=ADS)").description)
        assert evaluate_assertion(first_assertion("(jobtag = NFC)"), req)
        assert not evaluate_assertion(first_assertion("(jobtag = ADS)"), req)


class TestEvaluateDocument:
    def test_bo_permit_via_first_grant(self, ref_vo, bo):
        req = start_request(
            bo, "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)")
        decision, fact = evaluate_document(ref_vo, req)
        assert decision.is_permit
        assert decision.ref is not None and fact == ("grant", decision.ref, None)

    def test_bo_denied_unlisted_executable(self, ref_vo, bo):
        req = start_request(
            bo, "&(executable=test3)(directory=/sandbox/test)(jobtag=ADS)")
        decision, _ = evaluate_document(ref_vo, req)
        assert decision == deny("no grant satisfied")

    def test_group_requirement_denies_missing_jobtag(self, ref_vo, bo):
        req = start_request(bo, "&(executable=test1)(directory=/sandbox/test)")
        decision, _ = evaluate_document(ref_vo, req)
        assert decision.outcome is Outcome.DENY
        assert decision.reason.startswith("requirement violated")

    def test_empty_document_default_deny(self, bo):
        req = start_request(bo, "&(executable=test1)")
        decision, fact = evaluate_document(empty_document(), req)
        assert decision == deny("no applicable statements")
        assert fact is None

    def test_requirement_scoped_by_action(self, ref_vo, bo, kate):
        # the start requirement must not block Kate's cancel
        req = management_request(kate, "cancel", bo, "NFC")
        decision, _ = evaluate_document(ref_vo, req)
        assert decision.is_permit

    def test_value_set_semantics_within_one_rule(self, bo):
        doc = parse_policy(
            "/O=Grid:\n&(action=start)(executable=test1)(executable=test2)\n",
            "LOCAL")
        for exe, expected in (("test1", True), ("test2", True), ("test3", False)):
            decision, _ = evaluate_document(
                doc, start_request(bo, f"&(executable={exe})"))
            assert decision.is_permit is expected

    def test_relational_assertions_on_same_attribute_conjoin(self, bo):
        doc = parse_policy(
            "/O=Grid:\n&(action=start)(count>1)(count<5)\n", "LOCAL")
        for count, expected in ((1, False), (2, True), (4, True), (5, False)):
            decision, _ = evaluate_document(
                doc, start_request(bo, f"&(count={count})"))
            assert decision.is_permit is expected


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_order_independence(seed):
    rng = random.Random(seed)
    doc = random_document(rng)
    req = random_request(rng)
    base, _ = evaluate_document(doc, req)
    statements = list(doc.statements)
    rng.shuffle(statements)
    shuffled = PolicyDocument(tuple(statements), doc.source, doc.label)
    permuted, _ = evaluate_document(shuffled, req)
    assert permuted.outcome is base.outcome


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=100_000))
def test_grant_monotonicity(seed):
    rng = random.Random(seed)
    doc = random_document(rng)
    req = random_request(rng)
    base, _ = evaluate_document(doc, req)
    subject = rng.choice(doc.statements).subject if doc.statements else None
    if subject is None:
        return
    extra_grant = PolicyStatement(subject, StatementKind.GRANT, random_rule(rng), 99)
    grown = PolicyDocument(doc.statements + (extra_grant,), doc.source, doc.label)
    after, _ = evaluate_document(grown, req)
    if base.is_permit:
        assert after.is_permit
    extra_req = PolicyStatement(subject, StatementKind.REQUIREMENT, random_rule(rng), 99)
    tightened = PolicyDocument(doc.statements + (extra_req,), doc.source, doc.label)
    after, _ = evaluate_document(tightened, req)
    if not base.is_permit:
        assert not after.is_permit


def assert_matches_linear_oracle(doc, req):
    """The engine's decision (outcome, reason, source, ref) and its part of
    the explain line equal those of the oracle, which records every check."""
    decision, fact = evaluate_document(doc, req)
    expected, explanation = linear_evaluator.evaluate_document(doc, req)
    assert decision == expected
    assert _explain_summary(fact) == linear_evaluator.explain_summary(explanation)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_indexed_evaluator_matches_linear_oracle(seed):
    rng = random.Random(seed)
    doc = random_document(rng)
    req = random_request(rng)
    assert_matches_linear_oracle(doc, req)
    assert_matches_linear_oracle(doc, req)  # again, from the requester's plan


def _violated(expl):
    return [c.ref for c in expl.matched_requirements if c.applies and not c.held]


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_authorize_names_the_document_and_statement_that_decided(seed):
    rng = random.Random(seed)
    local = random_document(rng, "LOCAL")
    vo = random_document(rng, "VO")
    req = random_request(rng)
    (local_dec, local_expl), (vo_dec, vo_expl) = (
        linear_evaluator.evaluate_document(doc, req) for doc in (local, vo))
    # each document's ref: its satisfying grant, or its first violated
    # requirement, or none when no grant was satisfied
    for dec, expl in ((local_dec, local_expl), (vo_dec, vo_expl)):
        if dec.is_permit:
            assert dec.ref == expl.satisfying_grant is not None
        else:
            assert dec.ref == (_violated(expl) or [None])[0]
    if not local_dec.is_permit:
        expected = ("LOCAL-PEP", local_dec.ref)
    elif not vo_dec.is_permit:
        expected = ("VO-PEP", vo_dec.ref)
    else:
        expected = ("PEP", f"{local_dec.ref}+{vo_dec.ref}")
    combined, _ = authorize(local, vo, req)
    assert (combined.source, combined.ref) == expected


def _tree_dn(rng):
    """A DN at a random depth of a small tree, key case varied."""
    parts = ["/O=Grid", f"/O=VO-{rng.randrange(3)}", f"/OU=site-{rng.randrange(5)}",
             f"/CN=user-{rng.randrange(10)}"][: rng.randint(1, 4)]
    if rng.random() < 0.2:
        parts[0] = "/o=Grid"
    return "".join(parts)


def _large_document(rng, subjects=1000):
    """Blocks over DNs that share prefixes, subjects repeated, REQUIREMENT and
    GRANT blocks interleaved: a requester's statements sit in several index
    buckets that must be merged back into document order."""
    statements = []
    line = 1
    for _ in range(subjects):
        subject = SubjectPattern(GridIdentity.parse(_tree_dn(rng)))
        kind = rng.choice((StatementKind.REQUIREMENT, StatementKind.GRANT))
        for _ in range(rng.randint(1, 2)):
            line += 1
            statements.append(PolicyStatement(subject, kind, random_rule(rng), line))
        line += 1
    return PolicyDocument(tuple(statements), rng.choice(("LOCAL", "VO")), "large")


@pytest.mark.parametrize("seed", range(3))
def test_indexed_evaluator_matches_linear_oracle_on_large_documents(seed):
    rng = random.Random(seed)
    doc = _large_document(rng)
    assert len(doc.statements) >= 1000
    for _ in range(60):
        dn = STRANGER_DN if rng.random() < 0.05 else _tree_dn(rng)
        req = dataclasses.replace(random_request(rng), requester=GridIdentity.parse(dn))
        assert_matches_linear_oracle(doc, req)


# -- compiled checks against the reference truth function --------------------

# integer-looking text, integers, plain and empty text, and DNs (for SELF)
_TEXTS = ("007", "+7", "-0", "0", "7", "", "x", "test1", "with space", BO_DN, KATE_DN)
_DNS = (BO_DN, KATE_DN, STRANGER_DN)
_ATTRIBUTES = ("count", "executable", "queue", "jobtag", "jobowner", "signal", "action")
_values = st.one_of(st.sampled_from(_TEXTS).map(Text),
                    st.sampled_from((7, 0, -3, 4)).map(Integer))


@st.composite
def _assertions(draw):
    attribute = draw(st.sampled_from(_ATTRIBUTES))
    relation = draw(st.sampled_from(list(Relation)))
    if relation.is_ordering:  # non-integer literals included
        value = draw(_values)
    else:
        value = draw(st.one_of(_values, st.sampled_from((NULL, SELF))))
    return RslAssertion(attribute, relation, value)


@st.composite
def _requests(draw):
    """Start and management requests; description attributes hold zero to
    three values, and may name the attributes a job context supplies."""
    requester = GridIdentity.parse(draw(st.sampled_from(_DNS)))
    names = draw(st.lists(st.sampled_from(_ATTRIBUTES), unique=True, max_size=4))
    description = JobDescription(
        (name, tuple(draw(st.lists(_values, max_size=3)))) for name in names)
    action = draw(st.sampled_from(("start", "cancel", "information", "signal")))
    if action == "start":
        return AuthorizationRequest(requester, action, description)
    context = JobContext(
        "job-1", GridIdentity.parse(draw(st.sampled_from(_DNS))),
        draw(st.one_of(st.none(), st.sampled_from(_TEXTS))),
        draw(st.one_of(st.none(), st.sampled_from(("suspend", "priority", "7", "")))))
    return AuthorizationRequest(requester, action, description, context)


@settings(max_examples=400)
@given(st.lists(_assertions(), min_size=1, max_size=6), _requests())
def test_compiled_checks_match_evaluate_assertion(assertions, req):
    """Each assertion compiled alone holds exactly when evaluate_assertion
    says so, and a whole rule fails at the assertion the reference grouping
    names.  One request serves every check, as in a decision."""
    for a in assertions:
        held = _first_failing(_compile_rule((a,)), req) is None
        assert held is evaluate_assertion(a, req), a
    assert (_first_failing(_compile_rule(tuple(assertions)), req)
            == linear_evaluator.evaluate_rule(RslConjunction(tuple(assertions)), req))


def test_compiled_equality_cases(bo, kate):
    """The cases the compiled form normalises, each spelled out."""
    def holds(rule, req):
        conj = parse_rsl(rule)
        compiled = _first_failing(_compile_rule(conj.assertions), req) is None
        assert compiled is (linear_evaluator.evaluate_rule(conj, req) is None)
        return compiled

    seven = AuthorizationRequest(bo, "start", JobDescription([("count", (Text("007"),))]))
    assert holds('(count = 7)', seven) and holds('(count = "+7")', seven)
    assert not holds('(count = "7x")', seven) and holds("(count != 8)", seven)
    assert holds("(count != NULL)", seven) and not holds("(count = NULL)", seven)
    zero = AuthorizationRequest(bo, "start", JobDescription([("count", (Text("-0"),))]))
    assert holds("(count = 0)", zero) and holds("(count <= 0)", zero)
    empty = AuthorizationRequest(bo, "start", JobDescription([("queue", (Text(""),))]))
    assert holds("(queue = NULL)", empty) and not holds("(queue != NULL)", empty)
    assert holds('(queue = "")', empty) and not holds("(queue < 1)", empty)
    assert not holds("(count < x)", seven) and not holds("(count >= x)", seven)
    multi = AuthorizationRequest(
        bo, "start", JobDescription([("count", (Integer(2), Text("5")))]))
    assert holds("(count > 1)(count < 6)", multi) and not holds("(count < 5)", multi)
    assert not holds("(count = 3)", multi) and not holds("(count != 5)", multi)
    own = management_request(bo, "signal", bo, "NFC", signal_kind="suspend")
    other = management_request(kate, "signal", bo, "NFC", signal_kind="suspend")
    assert holds("(jobowner = SELF)(jobtag = NFC)(signal = suspend)", own)
    assert not holds("(jobowner = SELF)", other) and holds("(jobowner != SELF)", other)
    assert holds("(jobowner = SELF)(jobowner = x)", own)


class TestCombineDecisions:
    def test_both_permit(self):
        assert combine_decisions(permit("L#0"), permit("V#1")) == \
            Decision(Outcome.PERMIT, "", "PEP", "L#0+V#1")

    def test_vo_deny_prefixed(self):
        assert combine_decisions(permit("L#0"), deny("r", "V#2")) == \
            Decision(Outcome.DENY, "VO: r", "VO-PEP", "V#2")

    def test_local_deny_prefixed(self):
        assert combine_decisions(deny("r"), permit("V#1")) == \
            Decision(Outcome.DENY, "LOCAL: r", "LOCAL-PEP", None)

    def test_error_dominates_deny(self):
        combined = combine_decisions(error("e"), deny("r"))
        assert combined.outcome is Outcome.ERROR
        assert combined.reason == "e"

    def test_commutative_associative_on_outcomes(self):
        lattice = [permit(), deny("a"), deny("b"), error("x")]
        for a in lattice:
            for b in lattice:
                assert combine_decisions(a, b).outcome is combine_decisions(b, a).outcome
                for c in lattice:
                    left = combine_decisions(combine_decisions(a, b), c)
                    right = combine_decisions(a, combine_decisions(b, c))
                    assert left.outcome is right.outcome

    def test_permit_is_identity(self):
        for d in (permit(), deny("r"), error("e")):
            assert combine_decisions(permit(), d).outcome is d.outcome


class TestAuthorize:
    def test_permissive_local_with_ref_vo(self, ref_vo, kate):
        local = parse_policy("/O=Grid:\n&(action != NULL)\n", "LOCAL")
        req = start_request(
            kate, "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)")
        decision, _ = authorize(local, ref_vo, req)
        assert decision.is_permit

    def test_empty_local_blocks_everything(self, ref_vo, kate):
        req = start_request(
            kate, "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)")
        decision, _ = authorize(empty_document("LOCAL"), ref_vo, req)
        assert decision.outcome is Outcome.DENY
        assert decision.reason.startswith("LOCAL:")

    def test_count_limit_cited_in_explanations(self, ref_local, ref_vo, bo):
        req = start_request(
            bo, "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=5)")
        decision, facts = authorize(ref_local, ref_vo, req)
        assert decision.outcome is Outcome.DENY
        for doc, fact in zip((ref_local, ref_vo), facts):
            _, expl = linear_evaluator.evaluate_document(doc, req)
            failings = [c.failing.render() for c in expl.matched_grants
                        if c.failing is not None]
            assert "(count < 4)" in failings
            assert _explain_summary(fact).endswith("failed at (count < 4)")
            assert _explain_summary(fact) == linear_evaluator.explain_summary(expl)
