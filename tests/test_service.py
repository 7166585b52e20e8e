import importlib.util
import inspect
import random
import re
import shlex
import socket
import struct
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridauthz import callout, checkpoint, gatekeeper, jobmanager, policy, rsl as rsl_module
from gridauthz import service as service_module
from gridauthz.callout import Callouts
from gridauthz.jobmanager import JobManager, JobManagerConfig
from gridauthz.policy import GridIdentity
from gridauthz.service import (
    ConfigError,
    CorruptLog,
    Service,
    ServiceConfig,
    _parse_kv_line,
    _read_log,
    _q,
    read_audit_log,
    read_event_log,
    replay_events,
    send_request,
)

from conftest import (BO_DN, FIXTURES, KATE_DN, STRANGER_DN, TOKEN_POOL, make_service,
                      write_service_tree)

PERMISSIVE = "/O=Grid:\n&(action != NULL)\n"
REFERENCE = (FIXTURES / "reference.policy").read_text()
REF_EXTENDED = (FIXTURES / "reference_extended.policy").read_text()

BO_START = (
    f'SUBMIT dn="{BO_DN}" '
    'rsl="&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)"'
)

# request lines whose fields are outside the key=bare / key="quoted" grammar
OUT_OF_GRAMMAR = [
    f"SUBMIT dn='{BO_DN}' rsl=\"&(executable=test1)\"",  # single quotes
    f'SUBMIT dn=\\"{BO_DN}\\" rsl="&(executable=test1)"',  # unquoted backslash
    f'SUBMIT dn="{BO_DN}"x rsl="&(executable=test1)"',  # quoted part glued to more text
    f'SUBMIT dn="{BO_DN}" rsl="&(executable=test1)',  # unterminated quote
    "SUBMIT nonsense",  # no '='
]


@pytest.fixture
def svc(tmp_path):
    service = make_service(tmp_path, PERMISSIVE, PERMISSIVE)
    yield service
    service.close()


@pytest.fixture
def ref_svc(tmp_path):
    service = make_service(tmp_path, REFERENCE, REFERENCE)
    yield service
    service.close()


class TestServiceConfig:
    def test_from_file(self, tmp_path):
        config = ServiceConfig.from_file(
            write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE, slots=3))
        assert config.slots == 3
        assert config.self_management is True
        assert config.local_policy_path == tmp_path / "local.policy"

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("slots = 1\n")
        with pytest.raises(ConfigError):
            ServiceConfig.from_file(p)

    def test_bad_self_management(self, tmp_path):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        config.write_text(config.read_text().replace(
            "self_management = on", "self_management = maybe"))
        with pytest.raises(ConfigError):
            ServiceConfig.from_file(config)

    def test_invalid_slots(self, tmp_path):
        with pytest.raises(ConfigError):
            ServiceConfig.from_file(
                write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE, slots=0))

    @pytest.mark.parametrize("slots", ["1_0", "+3", "x", "\u0663", "3.0", ""])
    def test_slots_is_a_protocol_integer(self, tmp_path, slots):
        # int() would start 1_0 with 10 slots and +3 with 3, and raise a bare ValueError on x
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE, slots=slots)
        with pytest.raises(ConfigError, match="slots"):
            ServiceConfig.from_file(config)

    @pytest.mark.parametrize("endpoint", [
        "127.0.0.1:notaport", "127.0.0.1:", "127.0.0.1", ":7736", "7736",
        "127.0.0.1:65536", "127.0.0.1:-1", "127.0.0.1:+80", "127.0.0.1:1_0",
        "127.0.0.1:\u0663"])
    def test_listen_endpoint_is_a_host_and_a_port(self, tmp_path, endpoint):
        # int(port) would raise a bare ValueError in a client, or in a server
        # that has already started
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        config.write_text(config.read_text().replace("127.0.0.1:0", endpoint))
        with pytest.raises(ConfigError, match="listen_endpoint"):
            ServiceConfig.from_file(config)

    @pytest.mark.parametrize("endpoint", ["localhost:65535", "127.0.0.1:0", "::1:7736"])
    def test_a_good_listen_endpoint_loads(self, tmp_path, endpoint):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        config.write_text(config.read_text().replace("127.0.0.1:0", endpoint))
        assert ServiceConfig.from_file(config).listen_endpoint == endpoint


class TestProtocol:
    def test_submit_ok(self, svc):
        assert svc.handle_request(BO_START) == "OK job-1 PENDING"

    def test_unknown_verb(self, svc):
        assert svc.handle_request("FROB x=1").startswith("E-SYNTAX")

    def test_empty_line(self, svc):
        assert svc.handle_request("").startswith("E-SYNTAX")

    def test_malformed_fields(self, svc):
        for line in OUT_OF_GRAMMAR:
            resp = svc.handle_request(line)
            assert resp.startswith("E-SYNTAX ") and "\n" not in resp, line
            assert svc.audit_log.sequence == 0, line
        assert svc.config.audit_log_path.read_bytes() == b""

    def test_bad_rsl_is_syntax_error(self, svc):
        resp = svc.handle_request(f'SUBMIT dn="{BO_DN}" rsl="&(broken"')
        assert resp.startswith("E-SYNTAX")

    def test_unlisted_dn_is_gate_error(self, svc):
        resp = svc.handle_request(
            f'SUBMIT dn="{STRANGER_DN}" rsl="&(executable=test1)"')
        assert resp.startswith("E-GATE")

    @pytest.mark.parametrize("rsl", [
        # admitted under the ADS grant, then managed as an NFC job
        "&(executable=test1)(directory=/sandbox/test)(jobtag=NFC)(jobtag=ADS)",
        "&(executable=evil)(executable=test1)(directory=/sandbox/test)(jobtag=ADS)",
    ])
    def test_repeated_single_valued_attribute_is_syntax_error(self, ref_svc, rsl):
        resp = ref_svc.handle_request(f'SUBMIT dn="{BO_DN}" rsl="{rsl}"')
        assert resp.startswith("E-SYNTAX") and "may have only one value" in resp
        # a dry run reads the RSL as SUBMIT does
        assert ref_svc.handle_request(
            f'POLICY-EVAL dn="{BO_DN}" action="start" rsl="{rsl}"') == resp
        # rejected before the gridmap gate: nothing admitted, nothing audited
        assert ref_svc.handle_request("LIST") == "OK"
        assert ref_svc.audit_log.sequence == 0

    def test_policy_deny(self, ref_svc):
        resp = ref_svc.handle_request(
            f'SUBMIT dn="{BO_DN}" '
            'rsl="&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=4)"')
        assert resp.startswith("E-DENY")
        assert "LOCAL:" in resp

    def test_unregistered_provider_is_error(self, tmp_path):
        service = make_service(tmp_path, PERMISSIVE, PERMISSIVE,
                               callout="gram-authz akenti\n")
        try:
            assert service.handle_request(BO_START).startswith("E-ERROR")
        finally:
            service.close()

    def test_unknown_job(self, svc):
        resp = svc.handle_request(f'STATUS dn="{BO_DN}" job="job-9"')
        assert resp.startswith("E-UNKNOWN-JOB")

    def test_double_cancel_is_transition_error(self, svc):
        svc.handle_request(BO_START)
        assert svc.handle_request(
            f'CANCEL dn="{BO_DN}" job="job-1"') == "OK job-1 CANCELED"
        assert svc.handle_request(
            f'CANCEL dn="{BO_DN}" job="job-1"').startswith("E-TRANSITION")

    def test_tick_reports_changes(self, svc):
        svc.handle_request(BO_START)
        assert svc.handle_request('TICK now="1"') == "OK time=1 job-1:ACTIVE"
        assert svc.handle_request('TICK now="2"') == "OK time=2"

    def test_clock_regression_is_transition_error(self, svc):
        svc.handle_request('TICK now="5"')
        assert svc.handle_request('TICK now="4"').startswith("E-TRANSITION")

    def test_signal_priority(self, svc):
        svc.handle_request(BO_START)
        resp = svc.handle_request(
            f'SIGNAL dn="{BO_DN}" job="job-1" kind="priority" value="7"')
        assert resp == "OK job-1 PRIORITY 7"

    def test_signal_priority_requires_integer(self, svc):
        svc.handle_request(BO_START)
        resp = svc.handle_request(
            f'SIGNAL dn="{BO_DN}" job="job-1" kind="priority" value="high"')
        assert resp.startswith("E-SYNTAX")

    # int() alone reads "1_0" as 10, and takes blanks, a '+' and non-ASCII digits
    @pytest.mark.parametrize("raw", ["1_0", " 7", "7 ", "+7", "\u0663", "0x7", "7.0",
                                     "1e3", "--7", "-", "", "1" * 5000])
    def test_protocol_integers_are_ascii_digits_only(self, svc, raw):
        svc.handle_request(BO_START)
        for line in (f'TICK now="{raw}"',
                     f'SIGNAL dn="{BO_DN}" job="job-1" kind="priority" value="{raw}"'):
            assert svc.handle_request(line).startswith("E-SYNTAX ")
        assert svc.handle_request('TICK now="10"') == "OK time=10 job-1:ACTIVE"
        assert svc.handle_request(
            f'SIGNAL dn="{BO_DN}" job="job-1" kind="priority" value="-3"') == \
            "OK job-1 PRIORITY -3"

    def test_status(self, svc):
        svc.handle_request(BO_START)
        resp = svc.handle_request(f'STATUS dn="{BO_DN}" job="job-1"')
        assert resp.startswith("OK job-1 PENDING")
        assert "jobtag=NFC" in resp

    def test_list_with_filters(self, svc):
        svc.handle_request(BO_START)
        svc.handle_request(
            f'SUBMIT dn="{KATE_DN}" '
            'rsl="&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"')
        assert svc.handle_request("LIST") == "OK job-1:PENDING job-2:PENDING"
        assert svc.handle_request(
            f'LIST owner="{KATE_DN}"') == "OK job-2:PENDING"
        assert svc.handle_request('LIST state="DONE"') == "OK"
        # no job can fail, so there is no such state
        assert svc.handle_request('LIST state="FAILED"') == "E-SYNTAX unknown state 'FAILED'"

    def test_policy_eval_start(self, ref_svc):
        resp = ref_svc.handle_request(
            f'POLICY-EVAL dn="{BO_DN}" action="start" '
            'rsl="&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=5)"')
        assert resp.startswith("OK DENY")
        assert "(count < 4)" in resp

    def test_policy_eval_management(self, ref_svc):
        ref_svc.handle_request(BO_START)
        resp = ref_svc.handle_request(
            f'POLICY-EVAL dn="{KATE_DN}" action="cancel" job="job-1"')
        assert resp.startswith("OK PERMIT")


def test_rsl_parsed_once_and_not_rendered_on_the_authorization_path(ref_svc, monkeypatch):
    calls = Counter()
    # rsl_module: read_job_description calls its own module's parse_rsl
    for module in (callout, gatekeeper, jobmanager, rsl_module, service_module):
        for name in ("parse_rsl", "description_to_rsl"):
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    assert ref_svc.handle_request(BO_START) == "OK job-1 PENDING"
    # the event log holds the text the request carried: nothing renders it back
    assert calls == {"parse_rsl": 1}
    calls.clear()
    assert ref_svc.handle_request(f'CANCEL dn="{KATE_DN}" job="job-1"') == "OK job-1 CANCELED"
    assert calls == {}
    resp = ref_svc.handle_request(
        f'POLICY-EVAL dn="{KATE_DN}" action="start" rsl="&(executable=TRANSP)"')
    assert resp.startswith("OK ")
    assert calls == {"parse_rsl": 1}


def test_no_job_rsl_is_rendered_back(tmp_path, monkeypatch):
    # the text a SUBMIT carried is logged, checkpointed and restored as it is
    def render(description):
        raise AssertionError("a job's RSL was rendered back")

    for module in (callout, checkpoint, gatekeeper, jobmanager, rsl_module, service_module):
        if hasattr(module, "description_to_rsl"):
            monkeypatch.setattr(module, "description_to_rsl", render)
    config = ServiceConfig.from_file(write_service_tree(tmp_path, REFERENCE, REFERENCE))
    live = Service(config)
    answers = [live.handle_request(line) for line in (
        BO_START,
        f'SUBMIT dn="{KATE_DN}" rsl=" &( Executable = \\"TRANSP\\" )(jobtag=NFC)'
        '(directory=/sandbox/test)"',
        'TICK now="1"',
        f'SIGNAL dn="{KATE_DN}" job="job-1" kind="suspend"',
        f'STATUS dn="{KATE_DN}" job="job-2"',
        f'POLICY-EVAL dn="{KATE_DN}" action="cancel" job="job-1"',
        f'CANCEL dn="{KATE_DN}" job="job-1"')]
    live.close()  # which writes the checkpoint
    assert [" ".join(a.split()[:2]) for a in answers] == [
        "OK job-1", "OK job-2", "OK time=1", "E-DENY LOCAL:", "OK job-2", "OK PERMIT",
        "OK job-1"]
    assert config.checkpoint_path.exists()
    for _ in ("from the checkpoint", "from the logs alone"):
        restarted = Service(config)
        restarted.close()
        assert restarted.warnings == []
        assert restarted.jobmanager.snapshot() == live.jobmanager.snapshot()
        assert [r.description for r in restarted.jobmanager.jobs.values()] == \
            [r.description for r in live.jobmanager.jobs.values()]
        config.checkpoint_path.unlink()


def _any_case(draw, name):
    return "".join(c.upper() if up else c
                   for c, up in zip(name, draw(st.lists(st.booleans(), min_size=len(name),
                                                        max_size=len(name)))))


# any character a request line can carry inside quotes
QUOTABLE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                   max_size=8)


@st.composite
def start_rsl(draw):
    """RSL text a SUBMIT may carry: attribute names in any case, blanks
    around every token, bare, integer and quoted values (quotes and
    backslashes escaped inside), with and without ``count``."""
    def blank():
        return draw(st.text(" \t\r", max_size=2))

    def text_value():
        if draw(st.booleans()):
            return draw(st.sampled_from(TOKEN_POOL))
        return '"' + draw(QUOTABLE).replace("\\", "\\\\").replace('"', '\\"') + '"'

    single = {"executable": text_value(), "directory": text_value(),
              "jobtag": text_value(), "count": str(draw(st.integers(1, 3))),
              "maxtime": f'"{draw(st.integers(-2, 40))}"'}
    names = draw(st.lists(st.sampled_from(sorted(single)), unique=True, min_size=1))
    names += ["arguments"] * draw(st.integers(0, 2))  # multi-valued
    clauses = [f"({blank()}{_any_case(draw, name)}{blank()}={blank()}"
               f"{single[name] if name in single else text_value()}{blank()})"
               for name in draw(st.permutations(names))]
    return blank() + draw(st.sampled_from(["&", ""])) + blank() + blank().join(clauses)


@pytest.fixture(scope="module")
def rsl_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("rsl")
    return root, ServiceConfig.from_file(write_service_tree(root, PERMISSIVE, PERMISSIVE))


@settings(max_examples=100, deadline=None)
@given(st.lists(start_rsl(), min_size=1, max_size=4))
@example(["&(executable=test2)(count=1)", ' ( EXECUTABLE = "a \\"b\\" c\\\\" )'])
def test_a_job_keeps_the_rsl_text_it_was_submitted_with(rsl_tree, texts):
    root, config = rsl_tree
    for path in (config.audit_log_path, config.event_log_path, config.checkpoint_path):
        path.unlink(missing_ok=True)
    live = Service(config)
    for n, text in enumerate(texts, 1):
        assert live.handle_request(f"SUBMIT dn={_q(BO_DN)} rsl={_q(text)}") == \
            f"OK job-{n} PENDING"
    live.handle_request('TICK now="1"')
    live.handle_request(f'CANCEL dn="{BO_DN}" job="job-1"')
    live.close()
    # the created record holds the field as the request line carried it
    created = [line for line in config.event_log_path.read_bytes().decode().split("\n")
               if " event=created " in line]
    assert [line[line.index(" rsl=") + 5:] for line in created] == [_q(t) for t in texts]
    assert [ev["rsl"] for ev in read_event_log(config.event_log_path)
            if ev["event"] == "created"] == texts
    for _ in ("from the checkpoint", "from the logs alone"):
        restarted = Service(config)
        restarted.close()
        assert restarted.warnings == []
        assert restarted.jobmanager.snapshot() == live.jobmanager.snapshot()
        assert [r.rsl for r in restarted.jobmanager.jobs.values()] == texts
        assert [r.description for r in restarted.jobmanager.jobs.values()] == \
            [r.description for r in live.jobmanager.jobs.values()]
        config.checkpoint_path.unlink()


class TestReload:
    def test_policy_swap_changes_decisions(self, tmp_path):
        service = make_service(tmp_path, REFERENCE, REFERENCE)
        try:
            service.handle_request(BO_START)
            service.handle_request('TICK now="1"')
            suspend = f'SIGNAL dn="{KATE_DN}" job="job-1" kind="suspend"'
            assert service.handle_request(suspend).startswith("E-DENY")
            (tmp_path / "local.policy").write_text(REF_EXTENDED)
            (tmp_path / "vo.policy").write_text(REF_EXTENDED)
            assert service.handle_request("RELOAD") == "OK reloaded"
            assert service.handle_request(suspend) == "OK job-1 SUSPENDED"
        finally:
            service.close()

    def test_gridmap_swap(self, tmp_path):
        open_to_all = PERMISSIVE + "\n/O=Other:\n&(action != NULL)\n"
        service = make_service(tmp_path, open_to_all, open_to_all)
        try:
            submit = f'SUBMIT dn="{STRANGER_DN}" rsl="&(executable=x)"'
            assert service.handle_request(submit).startswith("E-GATE")
            gm = (tmp_path / "gridmap").read_text()
            (tmp_path / "gridmap").write_text(gm + f'"{STRANGER_DN}" guest\n')
            service.handle_request("RELOAD")
            assert service.handle_request(submit) == "OK job-1 PENDING"
        finally:
            service.close()

    def test_reload_swaps_the_subject_index(self, tmp_path):
        only_bo = f"{BO_DN}:\n&(action != NULL)\n"
        only_kate = f"{KATE_DN}:\n&(action != NULL)\n"
        service = make_service(tmp_path, PERMISSIVE, only_bo)
        try:
            def evaluate(dn):
                return service.handle_request(
                    f'POLICY-EVAL dn="{dn}" action="start" rsl="&(executable=x)"')

            assert evaluate(BO_DN).startswith("OK PERMIT")
            old_vo = service.policies[1]
            assert GridIdentity.parse(BO_DN).key() in old_vo.plans
            (tmp_path / "vo.policy").write_text(only_kate)
            assert service.handle_request("RELOAD") == "OK reloaded"
            new_vo = service.policies[1]
            assert new_vo.by_subject is not old_vo.by_subject
            assert new_vo.plans == {}  # Bo's plan was the old document's
            assert list(new_vo.by_subject) == [GridIdentity.parse(KATE_DN).key()]
            assert evaluate(BO_DN).startswith(
                'OK DENY reason="VO: no applicable statements"')
            assert evaluate(KATE_DN).startswith("OK PERMIT")
        finally:
            service.close()

    def test_reload_with_broken_policy_keeps_old_set(self, tmp_path):
        service = make_service(tmp_path, REFERENCE, REFERENCE)
        try:
            (tmp_path / "local.policy").write_text("not a policy ===\n")
            assert service.handle_request("RELOAD").startswith("E-ERROR")
            # old documents still in force
            assert service.handle_request(BO_START) == "OK job-1 PENDING"
        finally:
            service.close()

    @pytest.mark.parametrize("name", ["local.policy", "vo.policy"])
    def test_a_reload_error_names_the_policy_document(self, tmp_path, name):
        service = make_service(tmp_path, REFERENCE, REFERENCE)
        try:
            (tmp_path / name).write_text("&(executable=a)\n")
            assert service.handle_request("RELOAD") == \
                f"E-ERROR {tmp_path / name}: line 1: rule line before any subject"
        finally:
            service.close()


class TestMemos:
    """The parsed-DN memo and each document's plan memo stay within
    ``policy.MEMO_LIMIT`` whatever DNs clients send, and what they keep
    answers exactly as a fresh parse and a fresh plan do."""

    def test_memos_stay_bounded_over_many_distinct_dns(self, svc):
        assert svc.handle_request(BO_START) == "OK job-1 PENDING"
        limit = policy.MEMO_LIMIT
        seen = 0
        for template in ('STATUS dn="{}" job="job-1"', 'LIST owner="{}"',
                         'POLICY-EVAL dn="{}" action="start" rsl="&(executable=x)"'):
            for i in range(limit + 10):
                line = template.format(f"/O=Grid/OU={template[:4]}/CN=member-{i}")
                assert svc.handle_request(line).startswith("OK")
                assert len(policy._IDENTITIES) <= limit
                assert all(len(doc.plans) <= limit for doc in svc.policies)
                seen = max(seen, *(len(doc.plans) for doc in svc.policies))
        assert seen == limit  # the plans were kept, up to the limit

    def test_a_shared_identity_answers_as_a_fresh_one(self, svc):
        dn = "/O=Grid/ou=Shared/CN= Bo Liu "
        assert svc.handle_request(f'SUBMIT dn="{BO_DN}" rsl="&(executable=x)"').startswith("OK")
        requests = [f'POLICY-EVAL dn="{dn}" action="start" rsl="&(executable=x)"',
                    f'STATUS dn="{dn}" job="job-1"', f'LIST owner="{BO_DN}"',
                    f'POLICY-EVAL dn="{dn}" action="cancel" job="job-1"']
        shared = [svc.handle_request(line) for line in requests]
        cached = GridIdentity.parse(dn)
        assert GridIdentity.parse(dn) is cached
        policy._IDENTITIES.clear()
        for doc in svc.policies:
            doc.plans.clear()
        fresh = GridIdentity.parse(dn)
        assert fresh is not cached
        assert fresh == cached and hash(fresh) == hash(cached)
        assert (fresh.components, fresh.key(), fresh.render(), repr(fresh)) == \
            (cached.components, cached.key(), cached.render(), repr(cached))
        assert [svc.handle_request(line) for line in requests] == shared


class TestAuditLog:
    def test_sources_and_gapless_sequence(self, tmp_path):
        service = make_service(tmp_path, REFERENCE, REFERENCE)
        try:
            service.handle_request(BO_START)
            service.handle_request(f'CANCEL dn="{KATE_DN}" job="job-1"')
        finally:
            service.close()
        records = read_audit_log(tmp_path / "audit.log")
        assert [int(r["seq"]) for r in records] == list(range(1, len(records) + 1))
        assert [r["source"] for r in records] == ["GATE", "PEP", "PEP"]
        assert all(r["decision"] == "PERMIT" for r in records)

    def test_self_rule_source(self, tmp_path):
        service = make_service(tmp_path, REFERENCE, REFERENCE)
        try:
            service.handle_request(BO_START)
            service.handle_request(f'CANCEL dn="{BO_DN}" job="job-1"')
        finally:
            service.close()
        records = read_audit_log(tmp_path / "audit.log")
        assert records[-1]["source"] == "SELF-RULE"

    def test_deny_attributed_to_deciding_pep(self, tmp_path):
        service = make_service(tmp_path, PERMISSIVE, REFERENCE)
        try:
            resp = service.handle_request(
                f'SUBMIT dn="{BO_DN}" '
                'rsl="&(executable=test3)(directory=/sandbox/test)(jobtag=NFC)"')
            assert resp.startswith("E-DENY")
        finally:
            service.close()
        records = read_audit_log(tmp_path / "audit.log")
        assert records[-1]["source"] == "VO-PEP"
        assert records[-1]["decision"] == "DENY"

    @staticmethod
    def _last_record(tmp_path, service, *lines):
        try:
            responses = [service.handle_request(line) for line in lines]
        finally:
            service.close()
        record = read_audit_log(tmp_path / "audit.log")[-1]
        return responses, {k: record[k] for k in ("action", "decision", "reason", "ref", "source")}

    def test_pep_permit_names_both_documents(self, tmp_path):
        _, record = self._last_record(
            tmp_path, make_service(tmp_path, REFERENCE, REFERENCE),
            BO_START, f'CANCEL dn="{KATE_DN}" job="job-1"')
        assert record == {"action": "cancel", "decision": "PERMIT", "reason": "",
                          "ref": "LOCAL#4@L11+VO#4@L11", "source": "PEP"}

    @pytest.mark.parametrize("provider, outcome, reason", [
        ("allow-all", "PERMIT", ""),
        ("deny-all", "DENY", "deny-all"),
        ("akenti", "ERROR", "no provider registered as 'akenti'"),
    ])
    def test_callout_decisions_name_the_callout_layer(self, tmp_path, provider, outcome,
                                                      reason):
        _, record = self._last_record(
            tmp_path, make_service(tmp_path, REFERENCE, REFERENCE,
                                   callout=f"gram-authz {provider}\n"),
            BO_START)
        assert record == {"action": "start", "decision": outcome, "reason": reason,
                          "ref": "-", "source": "CALLOUT"}

    def test_management_deny_names_the_violated_requirement(self, tmp_path):
        local = PERMISSIVE + "&/O=Grid:\n(action = cancel)(jobtag != NFC)\n"
        responses, record = self._last_record(
            tmp_path, make_service(tmp_path, local, PERMISSIVE),
            BO_START, f'CANCEL dn="{KATE_DN}" job="job-1"')
        assert responses[1].startswith("E-DENY")
        assert record == {"action": "cancel", "decision": "DENY",
                          "reason": "LOCAL: requirement violated: LOCAL#1@L4",
                          "ref": "LOCAL#1@L4", "source": "LOCAL-PEP"}

    def test_start_deny_names_only_the_denying_document(self, tmp_path):
        # LOCAL denies for want of a grant, which names no statement; VO's
        # violated jobtag requirement did not decide
        local = "/O=Grid:\n&(executable = nothing)\n"
        responses, record = self._last_record(
            tmp_path, make_service(tmp_path, local, REFERENCE),
            f'SUBMIT dn="{BO_DN}" rsl="&(executable=test1)(directory=/sandbox/test)"')
        assert responses[0].startswith("E-DENY")
        assert record == {"action": "start", "decision": "DENY",
                          "reason": "LOCAL: no grant satisfied",
                          "ref": "-", "source": "LOCAL-PEP"}

    def test_sequence_continues_across_restart(self, tmp_path):
        config = write_service_tree(tmp_path, REFERENCE, REFERENCE)
        first = make_service(tmp_path, REFERENCE, REFERENCE)
        first.handle_request(BO_START)
        first.close()
        before = len(read_audit_log(tmp_path / "audit.log"))
        second = Service(ServiceConfig.from_file(config))
        second.handle_request(
            f'SUBMIT dn="{KATE_DN}" '
            'rsl="&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"')
        second.close()
        records = read_audit_log(tmp_path / "audit.log")
        assert [int(r["seq"]) for r in records] == list(range(1, len(records) + 1))
        assert len(records) > before


class TestLogIntegrity:
    def test_gap_detected(self, tmp_path):
        log = tmp_path / "audit.log"
        log.write_text(
            'seq=1 time=0 requester="x" action=start job=- decision=PERMIT '
            'reason="" ref="-" source=GATE\n'
            'seq=3 time=0 requester="x" action=start job=- decision=PERMIT '
            'reason="" ref="-" source=GATE\n')
        with pytest.raises(CorruptLog) as e:
            read_audit_log(log)
        assert e.value.sequence == 2

    def test_unreadable_event_detected(self, tmp_path):
        log = tmp_path / "events.log"
        log.write_text("seq=1 time=banana job=job-1 event=created\n")
        with pytest.raises(CorruptLog):
            list(read_event_log(log))

    def test_unreadable_audit_line_stops_start(self, tmp_path):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        first = Service(ServiceConfig.from_file(config))
        first.handle_request(BO_START)
        first.handle_request(BO_START)
        first.close()
        audit = tmp_path / "audit.log"
        lines = audit.read_text().splitlines(keepends=True)
        lines[1] = 'seq=2 requester="unterminated\n'
        audit.write_text("".join(lines))
        with pytest.raises(CorruptLog) as e:
            Service(ServiceConfig.from_file(config))
        assert e.value.sequence == 2

    @pytest.mark.parametrize("name", ["audit.log", "events.log"])
    def test_non_utf8_record_stops_start_at_its_sequence(self, tmp_path, name):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        first = Service(ServiceConfig.from_file(config))
        first.handle_request(BO_START)
        first.handle_request(BO_START)
        first.close()
        log = tmp_path / name
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"', b'"\xff', 1)
        log.write_bytes(b"".join(lines))
        with pytest.raises(CorruptLog) as e:
            Service(ServiceConfig.from_file(config))
        assert e.value.sequence == 2

    @pytest.mark.parametrize("name, logged, corrupt, sequence", [
        ("events.log", "seq=1 time=0", 'seq=1 time="1_0"', 1),
        ("events.log", "seq=2 time=0", 'seq="+2" time=" 3"', 2),
        ("events.log", 'priority="0" rsl="&(executable=test2)',
         'priority=" 7" rsl="&(executable=test2)', 1),
        ("events.log", 'priority="0" rsl="&(executable=TRANSP)',
         'priority="0_0" rsl="&(executable=TRANSP)', 2),
        ("events.log", 'value="2"', 'value="+2"', 6),
        ("events.log", "seq=7 time=2", "seq=7 time=\u0662", 7),
        ("audit.log", "seq=2 time=0", 'seq="+2" time=0', 2),
        ("audit.log", "seq=3 time=0", "seq=3 time=0 seq=\" 3\"", 3),
        ("audit.log", "seq=4 time=0", "seq=\u0664 time=0", 4),
    ])
    def test_log_integers_are_ascii_digits_only(self, tmp_path, name, logged, corrupt,
                                                sequence):
        # the rule of protocol integers; int() alone takes each of these
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        whole = SCENARIO_LOGS[name].decode()
        assert whole.count(logged) == 1
        with pytest.raises(CorruptLog) as e:
            _start_over(tmp_path, config, name, whole.replace(logged, corrupt).encode())
        assert e.value.sequence == sequence

    def test_empty_logs_are_fine(self, tmp_path):
        (tmp_path / "a.log").write_text("")
        assert read_audit_log(tmp_path / "a.log") == []
        assert list(read_event_log(tmp_path / "a.log")) == []


def drive_scenario(service):
    service.handle_request(BO_START)
    service.handle_request(
        f'SUBMIT dn="{KATE_DN}" '
        'rsl="&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(maxtime=3)"')
    service.handle_request('TICK now="1"')
    service.handle_request(f'SIGNAL dn="{BO_DN}" job="job-1" kind="suspend"')
    service.handle_request(f'SIGNAL dn="{BO_DN}" job="job-1" kind="priority" value="2"')
    service.handle_request('TICK now="2"')
    service.handle_request(f'SIGNAL dn="{BO_DN}" job="job-1" kind="resume"')
    service.handle_request('TICK now="6"')
    service.handle_request(f'CANCEL dn="{KATE_DN}" job="job-1"')
    service.handle_request('TICK now="9"')


BO = f'"{BO_DN}"'
KATE = f'"{KATE_DN}"'
SCENARIO_AUDIT = f"""\
seq=1 time=0 requester={BO} action=start job=- decision=PERMIT reason="" ref="bliu" source=GATE
seq=2 time=0 requester={BO} action=start job=- decision=PERMIT reason="" ref="LOCAL#0@L2+VO#0@L2" source=PEP
seq=3 time=0 requester={KATE} action=start job=- decision=PERMIT reason="" ref="kkeahey" source=GATE
seq=4 time=0 requester={KATE} action=start job=- decision=PERMIT reason="" ref="LOCAL#0@L2+VO#0@L2" source=PEP
seq=5 time=1 requester={BO} action=signal job=job-1 decision=PERMIT reason="" ref="-" source=SELF-RULE
seq=6 time=1 requester={BO} action=signal job=job-1 decision=PERMIT reason="" ref="-" source=SELF-RULE
seq=7 time=2 requester={BO} action=signal job=job-1 decision=PERMIT reason="" ref="-" source=SELF-RULE
seq=8 time=6 requester={KATE} action=cancel job=job-1 decision=PERMIT reason="" ref="LOCAL#0@L2+VO#0@L2" source=PEP
"""
SCENARIO_EVENTS = f"""\
seq=1 time=0 job=job-1 event=created actor={BO} owner={BO} account="bliu" priority="0" rsl="&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)"
seq=2 time=0 job=job-2 event=created actor={KATE} owner={KATE} account="kkeahey" priority="0" rsl="&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(maxtime=3)"
seq=3 time=1 job=job-1 event=dispatched actor="scheduler"
seq=4 time=1 job=job-2 event=dispatched actor="scheduler"
seq=5 time=1 job=job-1 event=suspended actor={BO}
seq=6 time=1 job=job-1 event=priority-changed actor={BO} value="2"
seq=7 time=2 job=job-1 event=resumed actor={BO}
seq=8 time=4 job=job-2 event=done actor="scheduler"
seq=9 time=6 job=job-1 event=canceled actor={KATE}
"""


def _events(*kinds):
    """Well-formed event records for job-1, one per kind, one time unit apart."""
    payloads = {
        "created": {"owner": BO_DN, "account": "bliu", "jobtag": "NFC", "priority": "0",
                    "duration": "10", "rsl": "&(executable = test2)"},
        "priority-changed": {"value": "3"},
    }
    return [{"seq": str(i), "time": i, "job": "job-1", "event": kind, "actor": "scheduler",
             **payloads.get(kind, {})}
            for i, kind in enumerate(kinds, 1)]


GOOD_RSL = "&(executable = test2)(count = 1)"
NON_EQUALITY_RSL = "&(executable = test2)(count != 1)"


def _created(n, rsl):
    """A well-formed ``created`` record of job-<n> at sequence n."""
    return {"seq": str(n), "time": 0, "job": f"job-{n}", "event": "created",
            "actor": BO_DN, "owner": BO_DN, "account": "bliu", "jobtag": "NFC",
            "priority": "0", "duration": "10", "rsl": rsl}


class TestReplay:
    def test_log_bytes_are_pinned(self, tmp_path):
        service = make_service(tmp_path, PERMISSIVE, PERMISSIVE)
        try:
            drive_scenario(service)
        finally:
            service.close()
        assert (tmp_path / "audit.log").read_bytes() == SCENARIO_AUDIT.encode()
        assert (tmp_path / "events.log").read_bytes() == SCENARIO_EVENTS.encode()

    @pytest.mark.parametrize("kinds", [
        ("created", "done"),
        ("created", "dispatched", "done", "resumed"),
        ("created", "dispatched", "finished"),
        ("created", "resumed"),
        ("created", "dispatched", "suspended", "dispatched"),
        ("created", "dispatched", "done", "priority-changed"),
        ("created", "created"),
        ("created", "dispatched", "failed"),
    ], ids="-".join)
    def test_replay_rejects_what_live_calls_cannot_write(self, kinds):
        jm = JobManager(None, JobManagerConfig())
        with pytest.raises(CorruptLog) as e:
            replay_events(_events(*kinds), jm)
        assert e.value.sequence == len(kinds)

    @pytest.mark.parametrize("rsl", ["&(broken", "&(count<3)", "&(executable=NULL)",
                                     "&(executable = a)(executable = b)"])
    def test_replay_rejects_a_created_rsl_live_calls_cannot_write(self, tmp_path, rsl):
        # the live machine logs only RSL it parsed into an equality description
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        logged = re.findall(r'rsl="[^"]*"', SCENARIO_EVENTS)[1]  # job-2, sequence 2
        corrupt = SCENARIO_EVENTS.replace(logged, f"rsl={_q(rsl)}").encode()
        with pytest.raises(CorruptLog) as e:
            _start_over(tmp_path, config, "events.log", corrupt)
        assert e.value.sequence == 2

    @pytest.mark.parametrize("texts, sequence", [
        ([GOOD_RSL] * 3 + [NON_EQUALITY_RSL], 4),
        ([NON_EQUALITY_RSL] * 3, 1),
        ([GOOD_RSL, "&(broken", GOOD_RSL, "&(broken"], 2),
    ], ids=["fourth-differs", "bad-repeated", "bad-after-good"])
    def test_a_checked_rsl_text_does_not_vouch_for_another(self, texts, sequence):
        # each text is checked once per replay; a failing one stops at its first use
        jm = JobManager(None, JobManagerConfig())
        with pytest.raises(CorruptLog) as e:
            replay_events([_created(n, text) for n, text in enumerate(texts, 1)], jm)
        assert e.value.sequence == sequence

    def test_replay_parses_each_distinct_rsl_text_once(self, tmp_path, monkeypatch):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        texts = [f"&(executable = test{i})(count = 1)" for i in range(3)]
        (tmp_path / "events.log").write_text("".join(
            f"seq={n} time=0 job=job-{n} event=created actor={BO} owner={BO} "
            f'account="bliu" jobtag="-" priority="0" duration="1" rsl={_q(texts[n % 3])}\n'
            for n in range(1, 13)))
        parsed = []
        parse_rsl = rsl_module.parse_rsl
        monkeypatch.setattr(rsl_module, "parse_rsl",
                            lambda text: parsed.append(text) or parse_rsl(text))
        service = Service(ServiceConfig.from_file(config))
        service.close()
        assert sorted(parsed) == texts
        assert [r.rsl for r in service.jobmanager.jobs.values()] == \
            [texts[n % 3] for n in range(1, 13)]

    def test_replay_takes_jobtag_and_duration_from_the_rsl(self):
        # the logged fields disagree with the RSL; a live SUBMIT derived both
        # from the description it logged, so the RSL is what it admitted
        rsls = ['&(executable = a)(jobtag = "-")(maxtime = 4)', "&(executable = b)"]
        events = [_created(n, rsl) for n, rsl in enumerate(rsls, 1)]
        jm = replay_events(events, JobManager(None, JobManagerConfig()))
        assert [(r.jobtag, r.duration) for r in jm.jobs.values()] == [("-", 4), (None, 10)]

    def test_replay_reconstructs_job_table(self, tmp_path):
        service = make_service(tmp_path, PERMISSIVE, PERMISSIVE)
        try:
            drive_scenario(service)
            original = service.jobmanager.snapshot()
            callouts = service.callouts
        finally:
            service.close()
        events = read_event_log(tmp_path / "events.log")
        fresh = JobManager(callouts, JobManagerConfig(slots=2))
        replay_events(events, fresh)
        assert fresh.snapshot() == original
        # the replayed clock is the latest recorded event time
        assert fresh.clock == 6
        assert fresh._next_id == 3

    def test_startup_replay_resumes_identically(self, tmp_path):
        config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
        first = Service(ServiceConfig.from_file(config))
        drive_scenario(first)
        snapshot = first.jobmanager.snapshot()
        first.close()
        second = Service(ServiceConfig.from_file(config))
        try:
            assert second.jobmanager.snapshot() == snapshot
            # the restored table keeps working: job-2 finishes on schedule
            second.handle_request('TICK now="10"')
            resp = second.handle_request(f'STATUS dn="{KATE_DN}" job="job-2"')
            assert "DONE" in resp
        finally:
            second.close()


@pytest.fixture
def served(tmp_path):
    with serving(tmp_path) as address:
        yield address


@contextmanager
def serving(tmp_path):
    """A service listening on a loopback port; gives (host, port)."""
    service = make_service(tmp_path, PERMISSIVE, PERMISSIVE)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    for _ in range(200):
        if getattr(service, "_server", None) is not None:
            break
        threading.Event().wait(0.01)
    try:
        yield service._server.server_address[:2]
    finally:
        service.shutdown()
        thread.join(timeout=5)
        service.close()


def test_tcp_round_trip(served):
    endpoint = "{}:{}".format(*served)
    assert send_request(endpoint, BO_START) == "OK job-1 PENDING"
    assert send_request(endpoint, 'TICK now="1"') == "OK time=1 job-1:ACTIVE"
    assert send_request(endpoint, "NOPE").startswith("E-SYNTAX")


def test_tcp_non_utf8_line_keeps_connection(served):
    with socket.create_connection(served, timeout=10) as sock:
        stream = sock.makefile("rwb")
        stream.write(b"LIST \xff\xfe\nLIST\n")
        stream.flush()
        assert stream.readline().startswith(b"E-SYNTAX ")
        assert stream.readline() == b"OK\n"


def test_tcp_over_long_line_gets_one_reply_and_the_connection_goes_on(served):
    with socket.create_connection(served, timeout=10) as sock:
        stream = sock.makefile("rwb")
        exact = b"LIST " + b" " * (service_module.MAX_LINE - 6) + b"\n"
        stream.write(b"LIST " + b"x" * (3 * service_module.MAX_LINE) + b"\n" + exact + b"LIST\n")
        stream.flush()
        assert stream.readline() == (b"E-SYNTAX request line longer than %d bytes\n"
                                     % service_module.MAX_LINE)
        assert stream.readline() == b"OK\n"  # a line of exactly MAX_LINE bytes is read
        assert stream.readline() == b"OK\n"


def test_unexpected_error_is_one_reply_and_the_service_goes_on(svc, monkeypatch, capsys):
    def broken(fields):
        raise RuntimeError("not a protocol error")

    monkeypatch.setattr(svc, "_cmd_status", broken)
    assert svc.handle_request(f'STATUS dn="{BO_DN}" job="job-1"') == \
        "E-ERROR internal error: RuntimeError"
    assert "RuntimeError: not a protocol error" in capsys.readouterr().err  # the traceback
    assert svc.handle_request(BO_START) == "OK job-1 PENDING"
    assert svc.handle_request('TICK now="1"') == "OK time=1 job-1:ACTIVE"


def test_tcp_out_of_grammar_line_keeps_connection(served):
    with socket.create_connection(served, timeout=10) as sock:
        stream = sock.makefile("rwb")
        stream.write(OUT_OF_GRAMMAR[0].encode() + b"\nLIST\n")
        stream.flush()
        assert stream.readline().startswith(b"E-SYNTAX ")
        assert stream.readline() == b"OK\n"


def _request(sock, line: bytes = b"LIST\n") -> bytes:
    stream = sock.makefile("rwb")
    stream.write(line)
    stream.flush()
    return stream.readline()


def _wait_for_threads(count: int):
    """Wait until at most ``count`` threads run: a handler has ended."""
    for _ in range(500):
        if threading.active_count() <= count:
            return
        threading.Event().wait(0.01)
    raise AssertionError(f"{threading.active_count()} threads still run")


def test_tcp_idle_connection_is_closed_quietly(tmp_path, monkeypatch, capsys):
    # silent connections hold the bound no longer than send_request waits
    assert service_module.IDLE_TIMEOUT_S <= \
        inspect.signature(send_request).parameters["timeout"].default
    monkeypatch.setattr(service_module, "IDLE_TIMEOUT_S", 0.2)  # read when serving starts
    monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 3)
    with serving(tmp_path) as address, ExitStack() as stack:
        threads = threading.active_count()
        idle = [stack.enter_context(socket.create_connection(address, timeout=10))
                for _ in range(3)]
        with socket.create_connection(address, timeout=10) as over:
            assert over.makefile("rb").read() == b"E-ERROR too many connections\n"
        assert [s.recv(1) for s in idle] == [b""] * 3  # closed by the server, with no reply
        _wait_for_threads(threads)
        with socket.create_connection(address, timeout=10) as sock:
            assert _request(sock) == b"OK\n"
    assert capsys.readouterr().err == ""


def test_tcp_client_that_goes_away_ends_its_connection_quietly(served, capsys):
    threads = threading.active_count()
    with socket.create_connection(served, timeout=10) as gone:
        assert _request(gone) == b"OK\n"
        gone.sendall(b"LIST\n" * 2000)
        # close with a reset: the server's next read or write fails
        gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    _wait_for_threads(threads)
    with socket.create_connection(served, timeout=10) as sock:
        assert _request(sock) == b"OK\n"
    assert capsys.readouterr().err == ""


def test_tcp_connection_over_the_bound_gets_one_error_line(tmp_path, monkeypatch):
    monkeypatch.setattr(service_module, "MAX_CONNECTIONS", 3)  # read when serving starts
    with serving(tmp_path) as address, ExitStack() as stack:
        threads = threading.active_count()
        clients = [stack.enter_context(socket.create_connection(address, timeout=10))
                   for _ in range(3)]
        assert [_request(c) for c in clients] == [b"OK\n"] * 3
        with socket.create_connection(address, timeout=10) as over:
            assert over.makefile("rb").read() == b"E-ERROR too many connections\n"
        assert [_request(c) for c in clients] == [b"OK\n"] * 3
        clients.pop().close()
        _wait_for_threads(threads + 2)
        with socket.create_connection(address, timeout=10) as fifth:
            assert _request(fifth) == b"OK\n"
        assert [_request(c) for c in clients] == [b"OK\n"] * 2


# -- the key=value reader against shlex -----------------------------------


def shlex_kv_line(line):
    """The same fields read with shlex: the oracle for _parse_kv_line."""
    fields = {}
    for token in shlex.split(line):
        if "=" not in token:
            raise ValueError(f"malformed field {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


BARE = re.compile(r"[^ \t\r\n\"'\\]+")


@settings(max_examples=300)
@given(st.dictionaries(st.from_regex(r"[A-Za-z_-]+", fullmatch=True),
                       st.tuples(st.text(st.characters(blacklist_characters="\n")),
                                 st.booleans())))
def test_rendered_fields_read_back(fields):
    # quoted as _q writes them, or bare as the log renderers write seq=, time=...
    line = " ".join(f"{key}={value if bare and BARE.fullmatch(value) else _q(value)}"
                    for key, (value, bare) in fields.items())
    assert _parse_kv_line(line) == {key: value for key, (value, _) in fields.items()}


# pieces of near-miss lines: escapes inside and outside quotes, glued
# quotes, blanks that shlex splits on and blanks that it does not
PIECES = ["a", "b=", "=", '"', "'", "\\", '\\"', "\\\\", "\\x", " ", "\t", "\r", "\n",
          "\x0b", "\x85", "\u2028", "#", "$", "/", "\xe9"]


@settings(max_examples=1000)
@given(st.one_of(st.lists(st.sampled_from(PIECES), max_size=16).map("".join), st.text()))
@example('a="\\x\\\\\\"" b=\x0b\x85 c="" d=')
def test_reader_agrees_with_shlex_or_rejects(line):
    try:
        fields = _parse_kv_line(line)
    except ValueError:
        return
    assert fields == shlex_kv_line(line)


def _perfbench_gen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_log_line_reads_as_shlex_reads_it(tmp_path):
    _perfbench_gen().write_restart_log(
        random.Random(1), tmp_path / "audit.log", tmp_path / "events.log", 300)
    lines = [*SCENARIO_AUDIT.splitlines(), *SCENARIO_EVENTS.splitlines()]
    for name in ("audit.log", "events.log"):
        lines += (tmp_path / name).read_text().splitlines()
    assert len(lines) > 1500
    for line in lines:
        assert _parse_kv_line(line) == shlex_kv_line(line), line


# -- starting over logs a crash left ---------------------------------------

SCENARIO_LOGS = {"audit.log": SCENARIO_AUDIT.encode(), "events.log": SCENARIO_EVENTS.encode()}


def _start_over(tmp_path, config, torn, data):
    for name, whole in SCENARIO_LOGS.items():
        (tmp_path / name).write_bytes(data if name == torn else whole)
    return Service(ServiceConfig.from_file(config))


@pytest.mark.parametrize("torn", sorted(SCENARIO_LOGS))
def test_torn_last_record_is_cut_at_start(tmp_path, torn):
    config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
    whole = SCENARIO_LOGS[torn]
    last = whole.rindex(b"\n", 0, len(whole) - 1) + 1  # where the last record starts

    def state(service):
        return (service.jobmanager.snapshot(), service.audit_log.sequence,
                service.event_log.sequence)

    clean = _start_over(tmp_path, config, torn, whole[:last])
    expected = state(clean)
    clean.close()
    for cut in range(last, len(whole)):
        service = _start_over(tmp_path, config, torn, whole[:cut])
        try:
            assert state(service) == expected, cut
        finally:
            service.close()
        assert (tmp_path / torn).read_bytes() == whole[:last], cut

    # the next record appended after the cut reads back
    service = _start_over(tmp_path, config, torn, whole[:-1])
    try:
        assert service.handle_request(BO_START) == "OK job-3 PENDING"
    finally:
        service.close()
    audit = read_audit_log(tmp_path / "audit.log")
    events = list(read_event_log(tmp_path / "events.log"))
    assert [int(r["seq"]) for r in audit] == list(range(1, len(audit) + 1))
    assert [int(e["seq"]) for e in events] == list(range(1, len(events) + 1))
    assert (events[-1]["job"], events[-1]["event"]) == ("job-3", "created")
    assert audit[-1]["source"] == "PEP"


@pytest.mark.parametrize("torn", sorted(SCENARIO_LOGS))
@pytest.mark.parametrize("where", ["middle", "last"])
def test_unreadable_whole_line_still_stops_start(tmp_path, torn, where):
    config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
    lines = SCENARIO_LOGS[torn].splitlines(keepends=True)
    k = len(lines) // 2 if where == "middle" else len(lines) - 1
    lines[k] = lines[k].replace(b"seq=", b'seq"', 1)  # one byte changed
    corrupt = b"".join(lines)
    with pytest.raises(CorruptLog) as e:
        _start_over(tmp_path, config, torn, corrupt)
    assert e.value.sequence == k + 1
    assert (tmp_path / torn).read_bytes() == corrupt


# bytes spliced into a log: not UTF-8, quotes, escapes, record ends, blanks
# that separate fields and blanks that do not, and parts of a seq field
SPLICES = [b"\xff", b'"', b"\\", b"\n", b" ", b"\t", b"\r", b"\x0b", "\u2028".encode(),
           b"=", b"x", b"0", b"-", b"+", b"_", b"seq=", b"seq=3", b'seq="4"']
SEQ_FIELD = re.compile(rb'seq="?[0-9]*"?')


@st.composite
def mutated_logs(draw, whole: bytes) -> bytes:
    """``whole`` with a few bytes inserted, deleted or replaced at random
    offsets, or with one of its seq fields moved or copied elsewhere."""
    data = bytearray(whole)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "move-seq", "copy-seq"]))
        if kind.endswith("-seq"):
            fields = list(SEQ_FIELD.finditer(data))
            if not fields:
                continue
            field = fields[draw(st.integers(0, len(fields) - 1))]
            piece = field[0]
            if kind == "move-seq":
                del data[field.start():field.end()]
                at = min(at, len(data))
            data[at:at] = piece
        else:
            end = at if kind == "insert" else at + draw(st.integers(1, 3))
            data[at:end] = b"" if kind == "delete" else draw(st.sampled_from(SPLICES))
    return bytes(data)


@pytest.fixture(scope="module")
def scenario_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    return root, write_service_tree(root, PERMISSIVE, PERMISSIVE)


def _outcome(count):
    try:
        return count()
    except CorruptLog as e:
        return ("CorruptLog", e.sequence)


@settings(max_examples=400, deadline=None)
@given(mutated_logs(SCENARIO_AUDIT.encode()))
@example(SCENARIO_AUDIT.encode().replace(b"seq=2 ", b"seq=2 seq=9 ", 1))
@example(SCENARIO_AUDIT.encode().replace(b"seq=2 ", b'seq=9 seq="2" ', 1))
@example(SCENARIO_AUDIT.encode().replace(b"seq=2 ", b"seq=02 ", 1))
@example(SCENARIO_AUDIT.encode().replace(b"\nseq=3 ", b"\n\x0b\xe2\x80\xa8\n \nseq=3 ", 1))
@example(SCENARIO_AUDIT.encode().replace(b"\nseq=3 ", b"\n\x0bseq=3 ", 1))
@example(SCENARIO_AUDIT.encode().replace(b'ref="-"', b'ref="seq=1"', 1))
@example(SCENARIO_AUDIT.encode().replace(b"seq=5 ", b'seq="\\5" ', 1))
def test_audit_count_agrees_with_the_reader(scenario_tree, log):
    # the count at start against the reader the tests and read_audit_log use
    root, config = scenario_tree
    (root / "audit.log").write_bytes(log)
    (root / "events.log").write_bytes(SCENARIO_EVENTS.encode())

    def start():
        service = Service(ServiceConfig.from_file(config))
        service.close()
        return service.audit_log.sequence

    # both read what start left: it cuts a torn last record before counting
    started = _outcome(start)
    assert started == _outcome(lambda: sum(1 for _ in _read_log(root / "audit.log")))


def _drive_restart_mix(service, rng, requests):
    """A seeded mix of SUBMITs by Bo and Kate, TICKs, owner CANCELs and
    third-party SIGNALs and STATUSes; returns each admitted job's owner."""
    owners, now = {}, 0
    for _ in range(requests):
        r = rng.random()
        if r < 0.35 or not owners:
            dn = rng.choice((BO_DN, KATE_DN))
            if dn == BO_DN:
                exe, tag = rng.choice((("test1", "ADS"), ("test2", "NFC")))
            else:
                exe, tag = "TRANSP", "NFC"
            rsl = (f"&(executable={exe})(directory=/sandbox/test)(jobtag={tag})"
                   f"(count={rng.randint(1, 4)})(maxtime={rng.randint(1, 5)})")
            resp = service.handle_request(f"SUBMIT dn={_q(dn)} rsl={_q(rsl)}")
            if resp.startswith("OK "):
                owners[resp.split()[1]] = dn
        elif r < 0.55:
            now += rng.randint(0, 3)
            service.handle_request(f'TICK now="{now}"')
        else:
            job = rng.choice(list(owners))
            other = BO_DN if owners[job] == KATE_DN else KATE_DN
            if r < 0.65:
                service.handle_request(f'CANCEL dn={_q(owners[job])} job="{job}"')
            elif r < 0.85:
                kind = rng.choice(("suspend", "resume", "priority"))
                value = f' value="{rng.randint(0, 5)}"' if kind == "priority" else ""
                service.handle_request(
                    f'SIGNAL dn={_q(other)} job="{job}" kind="{kind}"{value}')
            else:
                service.handle_request(f'STATUS dn={_q(other)} job="{job}"')
    return owners


def test_answers_after_a_restart_match_live_answers(tmp_path):
    live_dir, restart_dir = tmp_path / "live", tmp_path / "restart"
    live_dir.mkdir()
    restart_dir.mkdir()
    live = make_service(live_dir, REF_EXTENDED, REF_EXTENDED)
    try:
        owners = _drive_restart_mix(live, random.Random(15), 300)
        config = write_service_tree(restart_dir, REF_EXTENDED, REF_EXTENDED)
        for name in ("audit.log", "events.log"):
            (restart_dir / name).write_bytes((live_dir / name).read_bytes())
        restarted = Service(ServiceConfig.from_file(config))
        try:
            finished = [r for r in restarted.jobmanager.jobs.values()
                        if r.state in jobmanager.TERMINAL_STATES]
            assert len(finished) > 20
            # both hold the RSL text each SUBMIT carried; a live job also holds
            # the description admission read, a restored one reads it when asked
            assert [r.rsl for r in restarted.jobmanager.jobs.values()] == \
                [r.rsl for r in live.jobmanager.jobs.values()]
            assert all(r.parsed is None for r in finished)
            assert all(r.parsed is not None for r in live.jobmanager.jobs.values())
            for job, owner in owners.items():
                other = _q(BO_DN if owner == KATE_DN else KATE_DN)
                for request in (
                        f'POLICY-EVAL dn={other} action="cancel" job="{job}"',
                        f'POLICY-EVAL dn={other} action="information" job="{job}"',
                        f'POLICY-EVAL dn={other} action="signal" job="{job}" signal="suspend"',
                        f'STATUS dn={other} job="{job}"'):
                    assert restarted.handle_request(request) == live.handle_request(request)
            assert restarted.jobmanager.snapshot() == live.jobmanager.snapshot()
        finally:
            restarted.close()
    finally:
        live.close()


def test_restart_peak_memory_is_what_the_table_keeps(tmp_path):
    # the event log is replayed one record at a time, never held whole
    config = write_service_tree(tmp_path, REF_EXTENDED, REF_EXTENDED)
    _perfbench_gen().write_restart_log(
        random.Random(1), tmp_path / "audit.log", tmp_path / "events.log", 1000)
    tracemalloc.start()
    try:
        service = Service(ServiceConfig.from_file(config))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    service.close()
    assert len(service.jobmanager.jobs) == 1000
    assert peak <= 1.2 * retained, (peak, retained)


@pytest.mark.parametrize("separator", ["\r", "\x0c", "\x1e", "\x85", "\u2028"])
def test_line_separator_in_a_value_keeps_the_logs_readable(tmp_path, separator):
    # str.splitlines() and universal newlines end a line here; the logs do not
    config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
    dn = f"/O=Grid/CN=Eve{separator}Mallory"
    first = Service(ServiceConfig.from_file(config))
    try:
        assert first.handle_request(
            f'SUBMIT dn="{dn}" rsl="&(executable=x)"').startswith("E-GATE")
    finally:
        first.close()
    Service(ServiceConfig.from_file(config)).close()
    (record,) = read_audit_log(tmp_path / "audit.log")
    assert record["requester"] == GridIdentity.parse(dn).render()


@pytest.mark.parametrize("line", ['SUBMIT dn="/O=Grid/CN=x\ny" rsl="&(executable=a)"',
                                  'SUBMIT dn="/O=Grid/CN=x" rsl="&(executable=a\n)"'])
def test_raw_newline_in_a_request_is_one_syntax_error(tmp_path, line):
    # TCP splits a line there; in process the audit record would be split
    config = write_service_tree(tmp_path, PERMISSIVE, PERMISSIVE)
    first = Service(ServiceConfig.from_file(config))
    try:
        before = (tmp_path / "audit.log").read_bytes()
        reply = first.handle_request(line)
        assert reply.startswith("E-SYNTAX ") and "\n" not in reply
        assert (tmp_path / "audit.log").read_bytes() == before
    finally:
        first.close()
    Service(ServiceConfig.from_file(config)).close()
