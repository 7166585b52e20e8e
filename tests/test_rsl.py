import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gridauthz import rsl
from gridauthz.rsl import (
    Integer,
    JobDescription,
    NonEqualityInRequest,
    NULL,
    OrderingOnSpecial,
    Relation,
    RslAssertion,
    RslConjunction,
    RslSyntaxError,
    SELF,
    SpecialValueInRequest,
    Text,
    apply_defaults,
    parse_rsl,
    render_rsl,
    to_job_description,
)

from conftest import random_conjunction


def test_parse_group_requirement_rule():
    conj = parse_rsl("&(action = start)(jobtag != NULL)")
    assert conj.assertions == (
        RslAssertion("action", Relation.EQ, Text("start")),
        RslAssertion("jobtag", Relation.NEQ, NULL),
    )


def test_parse_count_less_than():
    conj = parse_rsl("&(count<4)")
    assert conj.assertions == (RslAssertion("count", Relation.LT, Integer(4)),)


def test_parse_without_leading_ampersand():
    assert parse_rsl("(count<4)") == parse_rsl("&(count<4)")


def test_empty_input_is_positioned_syntax_error():
    with pytest.raises(RslSyntaxError) as e:
        parse_rsl("")
    assert e.value.offset == 0


def test_truncated_group():
    with pytest.raises(RslSyntaxError):
        parse_rsl("&(executable =")


def _outcome(parse, text):
    try:
        return parse(text)
    except (RslSyntaxError, OrderingOnSpecial) as e:
        return type(e), str(e)


def _step_by_step(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(rsl, "_CLAUSE_RE", re.compile(r"(?!)"))  # never matches
        return _outcome(parse_rsl, text)


def _one_of(*choices):
    return st.sampled_from(choices)


# clause-shaped text, well-formed or broken at any of its parts
_CLAUSE_TEXT = st.tuples(
    _one_of("(", "( ", ""), _one_of("count", "a", "B_1", "", "1x"), _one_of("", " ", "\t"),
    _one_of("=", "!=", "<", ">", "<=", ">=", "!", "=="), _one_of("", " "),
    _one_of("", "4", "-2", "x", "NULL", "SELF", '"q r"', '"', "=", "x y", "/p("),
    _one_of("", " "), _one_of(")", "", ") ", "))")).map("".join)


@settings(max_examples=400)
@given(st.tuples(_one_of("", "&", " & "), st.lists(_CLAUSE_TEXT, max_size=4).map("".join))
       .map("".join))
def test_one_step_clause_reader_agrees_with_step_by_step_reader(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _outcome(parse_rsl, text) == _step_by_step(text, monkeypatch)


@pytest.mark.parametrize("text", [
    "(count <=)", "(count<=)", "(count >=)", "(a <==b)", "(a = b)(c<d)(e != NULL)",
    '(a = b"c")', "(a == b)", "&(x<=4)  (y>=-2)\t", "(ab1_C = x y)", "(a = SELF)",
])
def test_one_step_clause_reader_examples(text, monkeypatch):
    assert _outcome(parse_rsl, text) == _step_by_step(text, monkeypatch)


def test_ordering_on_special_rejected():
    with pytest.raises(OrderingOnSpecial):
        parse_rsl("&(jobtag < NULL)")
    with pytest.raises(OrderingOnSpecial):
        parse_rsl("&(jobowner >= SELF)")


def test_case_insensitive_attribute_names():
    assert parse_rsl("(COUNT < 4)") == parse_rsl("(count < 4)")


def test_quoted_values_preserve_whitespace_and_type():
    conj = parse_rsl('&(executable = "my app")(count = "4")')
    assert conj.assertions[0].value == Text("my app")
    assert conj.assertions[1].value == Text("4")  # quoted digits stay text


def test_quoted_null_is_plain_text():
    conj = parse_rsl('&(jobtag = "NULL")')
    assert conj.assertions[0].value == Text("NULL")


def test_render_examples():
    assert render_rsl(RslConjunction((RslAssertion("action", Relation.EQ, Text("start")),))) \
        == "&(action = start)"
    assert render_rsl(RslConjunction((RslAssertion("count", Relation.LT, Integer(4)),))) \
        == "&(count < 4)"
    assert render_rsl(RslConjunction((RslAssertion("executable", Relation.EQ, Text("my app")),))) \
        == '&(executable = "my app")'


def test_parser_totality_on_junk():
    for junk in ("&", "(", "((", "(a", "(a=", "(a=1", "(a=1)(", "x", "&&", "(1=2)",
                  "(a ? 1)", '(a="unterminated)', "(a = ) "):
        with pytest.raises(RslSyntaxError):
            parse_rsl(junk)


@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_conjunctions(seed):
    rng = random.Random(seed)
    conj = random_conjunction(rng)
    assert parse_rsl(render_rsl(conj)) == conj


def test_to_job_description_reference_listing():
    conj = parse_rsl("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)")
    jd = to_job_description(conj)
    assert jd.names() == ["executable", "directory", "jobtag"]
    assert jd.get("jobtag") == (Text("ADS"),)


def test_to_job_description_repeated_attribute_is_multivalued():
    jd = to_job_description(parse_rsl("&(arg = a)(arg = b)"))
    assert jd.get("arg") == (Text("a"), Text("b"))


def test_to_job_description_rejects_non_equality():
    with pytest.raises(NonEqualityInRequest) as e:
        to_job_description(parse_rsl("&(count<4)"))
    assert e.value.attribute == "count"


def test_to_job_description_rejects_specials():
    with pytest.raises(SpecialValueInRequest) as e:
        to_job_description(parse_rsl("&(jobtag != NULL)"))
    assert e.value.attribute == "jobtag"


def test_apply_defaults_inserts_count():
    jd = to_job_description(parse_rsl("&(executable=test1)"))
    out = apply_defaults(jd)
    assert out.get("count") == (Integer(1),)
    assert out.get("executable") == (Text("test1"),)


def test_apply_defaults_idempotent_and_monotone():
    jd = to_job_description(parse_rsl("&(count=3)"))
    assert apply_defaults(jd) == jd
    empty = apply_defaults(JobDescription())
    assert empty.get("count") == (Integer(1),)
    assert apply_defaults(empty) == empty
