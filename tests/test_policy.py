import random

import pytest
from hypothesis import given, strategies as st

from gridauthz.policy import (
    EmptyBlock,
    GridIdentity,
    PolicySyntaxError,
    StatementKind,
    SubjectPattern,
    lint_policy,
    parse_policy,
    render_policy,
)

from conftest import BO_DN, KATE_DN, random_document


def test_reference_listing_parses_to_five_statements(ref_vo):
    kinds = [s.kind for s in ref_vo.statements]
    assert kinds == [StatementKind.REQUIREMENT] + [StatementKind.GRANT] * 4
    assert ref_vo.statements[0].subject.render() == "/O=Grid/O=Globus/OU=mcs.anl.gov"
    assert ref_vo.statements[1].subject.prefix == GridIdentity.parse(BO_DN)
    assert ref_vo.statements[3].subject.prefix == GridIdentity.parse(KATE_DN)


def test_empty_document():
    doc = parse_policy("", "LOCAL")
    assert doc.statements == ()


def test_subject_without_rules_is_empty_block():
    with pytest.raises(EmptyBlock):
        parse_policy("/O=Grid/CN=Alone:\n", "LOCAL")
    with pytest.raises(EmptyBlock):
        parse_policy("/O=Grid/CN=A:\n\n/O=Grid/CN=B:\n(action=start)\n", "LOCAL")


def test_rule_before_subject_is_error():
    with pytest.raises(PolicySyntaxError):
        parse_policy("(action=start)\n", "LOCAL")


def test_bad_rule_reports_line_number():
    with pytest.raises(PolicySyntaxError) as e:
        parse_policy("/O=Grid/CN=A:\n(action=start)\n(broken\n", "LOCAL")
    assert e.value.line == 3


def test_duplicate_action_assertion_rejected():
    with pytest.raises(PolicySyntaxError):
        parse_policy("/O=Grid/CN=A:\n(action=start)(action=cancel)\n", "LOCAL")


def test_identity_normalizes_space_after_equals():
    a = GridIdentity.parse("/O=Grid/CN= Bo Liu")
    b = GridIdentity.parse("/O=Grid/CN=Bo Liu")
    assert a == b
    assert a.render() == "/O=Grid/CN=Bo Liu"


def test_identity_keys_fold_values_do_not():
    assert GridIdentity.parse("/o=Grid/cn=X") == GridIdentity.parse("/O=Grid/CN=X")
    assert GridIdentity.parse("/O=Grid/CN=x") != GridIdentity.parse("/O=Grid/CN=X")


def test_match_subject_prefix():
    pattern = SubjectPattern(GridIdentity.parse("/O=Grid/O=Globus/OU=mcs.anl.gov"))
    assert pattern.matches(GridIdentity.parse(BO_DN))
    assert pattern.matches(pattern.prefix)  # reflexive


def test_match_subject_is_component_wise_not_textual():
    pattern = SubjectPattern(GridIdentity.parse("/O=Grid/O=Globus/OU=mcs.anl"))
    assert not pattern.matches(GridIdentity.parse(BO_DN))


def test_match_subject_transitive():
    a = GridIdentity.parse("/O=Grid")
    b = GridIdentity.parse("/O=Grid/O=Globus")
    c = GridIdentity.parse("/O=Grid/O=Globus/OU=mcs.anl.gov")
    assert SubjectPattern(a).matches(b)
    assert SubjectPattern(b).matches(c)
    assert SubjectPattern(a).matches(c)


_COMPONENTS = st.lists(st.tuples(st.sampled_from(("O", "o", "OU", "CN")),
                                  st.sampled_from(("Grid", "grid", "", "a=b", "=", "Bo Liu"))),
                        max_size=3)


@given(_COMPONENTS, _COMPONENTS, _COMPONENTS)
def test_matches_is_component_wise_prefix_on_folded_keys(common, a_tail, b_tail):
    if not common + a_tail or not common + b_tail:
        return
    a = GridIdentity.parse("".join(f"/{k}={v}" for k, v in common + a_tail))
    b = GridIdentity.parse("".join(f"/{k}={v}" for k, v in common + b_tail))
    folded_a = [(k.lower(), v) for k, v in a.components]
    folded_b = [(k.lower(), v) for k, v in b.components]
    assert SubjectPattern(a).matches(b) is (folded_b[: len(folded_a)] == folded_a)
    assert (a == b) is (folded_a == folded_b)


@given(st.integers(min_value=0, max_value=2_000))
def test_statement_level_round_trip(seed):
    doc = random_document(random.Random(seed))
    reparsed = parse_policy(render_policy(doc), doc.source, doc.label)
    assert len(reparsed.statements) == len(doc.statements)
    for original, back in zip(doc.statements, reparsed.statements):
        assert back.subject.prefix == original.subject.prefix
        assert back.kind == original.kind
        assert back.rule == original.rule


def test_reference_listing_round_trips(ref_vo):
    reparsed = parse_policy(render_policy(ref_vo), "VO", "reference")
    assert [
        (s.subject.prefix, s.kind, s.rule) for s in reparsed.statements
    ] == [(s.subject.prefix, s.kind, s.rule) for s in ref_vo.statements]


def test_lint_reference_policy_is_clean(ref_vo):
    assert lint_policy(ref_vo) == []


def test_lint_unsatisfiable_interval():
    doc = parse_policy("/O=Grid/CN=A:\n(action=start)(count<4)(count>10)\n", "LOCAL")
    warnings = lint_policy(doc)
    assert any("unsatisfiable" in w for w in warnings)


def test_lint_eq_outside_interval():
    doc = parse_policy("/O=Grid/CN=A:\n(action=start)(count=9)(count<4)\n", "LOCAL")
    warnings = lint_policy(doc)
    assert any("ordering constraints" in w for w in warnings)


def test_lint_missing_action_grant():
    doc = parse_policy("/O=Grid/CN=A:\n(executable=test1)\n", "LOCAL")
    assert any("no 'action'" in w for w in lint_policy(doc))


def test_lint_ordering_on_non_integer():
    doc = parse_policy('/O=Grid/CN=A:\n(action=start)(maxtime < "soon")\n', "LOCAL")
    assert any("non-integer" in w for w in lint_policy(doc))


def test_lint_self_outside_jobowner():
    doc = parse_policy("/O=Grid/CN=A:\n(action=start)(executable = SELF)\n", "LOCAL")
    assert any("SELF" in w for w in lint_policy(doc))
