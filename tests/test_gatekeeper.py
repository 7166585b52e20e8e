import pytest

from gridauthz.callout import CalloutConfig, Callouts, make_builtin_registry
from gridauthz.engine import Outcome
from gridauthz.gatekeeper import (
    Gridmap,
    GridmapSyntaxError,
    NotAuthorized,
    PolicyDenied,
    admit,
    authorize_and_map,
    parse_gridmap,
)
from gridauthz.policy import GridIdentity, empty_document
from gridauthz.rsl import RslSyntaxError

from conftest import BO_DN, FIXTURES


@pytest.fixture
def gridmap():
    return parse_gridmap((FIXTURES / "gridmap").read_text())


def make_callouts(local_doc, vo_doc, binding="gram-authz rsl-pep"):
    registry = make_builtin_registry(lambda: (local_doc, vo_doc))
    return Callouts(CalloutConfig({binding.split()[0]: binding.split()[1]}, []), registry)


class TestParseGridmap:
    def test_single_entry(self):
        gm = parse_gridmap(f'"{BO_DN}" bliu\n')
        assert len(gm.accounts) == 1
        assert gm.accounts[GridIdentity.parse(BO_DN)] == "bliu"

    def test_empty_file(self):
        assert parse_gridmap("") == Gridmap({})

    def test_comments_and_blanks_ignored(self):
        gm = parse_gridmap(f'# header\n\n"{BO_DN}" bliu\n')
        assert len(gm.accounts) == 1

    def test_missing_account(self):
        with pytest.raises(GridmapSyntaxError) as e:
            parse_gridmap('"/O=Grid" \n')
        assert e.value.line == 1

    def test_unterminated_quote(self):
        with pytest.raises(GridmapSyntaxError):
            parse_gridmap('"/O=Grid bliu\n')

    def test_duplicate_first_wins_with_warning(self):
        gm = parse_gridmap(f'"{BO_DN}" first\n"{BO_DN}" second\n')
        assert gm.lookup(GridIdentity.parse(BO_DN)) == "first"
        assert len(gm.warnings) == 1


class TestAuthorizeAndMap:
    def test_lookup(self, gridmap, bo):
        assert authorize_and_map(gridmap, bo) == "bliu"

    def test_unlisted_dn_not_authorized(self, gridmap, stranger):
        with pytest.raises(NotAuthorized):
            authorize_and_map(gridmap, stranger)

    def test_exact_match_not_prefix(self, gridmap):
        truncated = GridIdentity.parse("/O=Grid/O=Globus/OU=mcs.anl.gov")
        with pytest.raises(NotAuthorized):
            authorize_and_map(gridmap, truncated)

    def test_repeated_lookups_agree(self, gridmap, bo):
        assert authorize_and_map(gridmap, bo) == authorize_and_map(gridmap, bo)


class TestAdmit:
    GOOD_RSL = "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)"

    def test_permitted_start_yields_ticket(self, gridmap, ref_local, ref_vo, bo):
        callouts = make_callouts(ref_local, ref_vo)
        ticket = admit(gridmap, callouts, bo, self.GOOD_RSL)
        assert ticket.account == "bliu"
        assert ticket.decision.is_permit
        assert ticket.description.get("jobtag") is not None

    def test_gate_precedes_pep(self, ref_local, ref_vo, bo):
        audit_trail = []

        def audit(requester, action, job_id, decision):
            audit_trail.append((decision.source, decision.outcome))

        callouts = make_callouts(ref_local, ref_vo)
        with pytest.raises(NotAuthorized):
            admit(Gridmap({}), callouts, bo, self.GOOD_RSL, audit=audit)
        assert audit_trail == [("GATE", Outcome.DENY)]

    def test_missing_jobtag_denied_by_requirement(self, gridmap, ref_local, ref_vo, bo):
        callouts = make_callouts(ref_local, ref_vo)
        with pytest.raises(PolicyDenied) as e:
            admit(gridmap, callouts, bo,
                  "&(executable=test1)(directory=/sandbox/test)(count=1)")
        assert "requirement violated" in e.value.reason

    def test_bad_rsl_fails_before_gate(self, gridmap, ref_local, ref_vo, bo):
        audit_trail = []
        callouts = make_callouts(ref_local, ref_vo)
        with pytest.raises(RslSyntaxError):
            admit(gridmap, callouts, bo, "&(broken",
                  audit=lambda *a: audit_trail.append(a))
        assert audit_trail == []

    def test_empty_policy_default_deny(self, gridmap, bo):
        callouts = make_callouts(empty_document("LOCAL"), empty_document("VO"))
        with pytest.raises(PolicyDenied):
            admit(gridmap, callouts, bo, self.GOOD_RSL)

    def test_audit_distinguishes_all_outcomes(self, gridmap, ref_local, ref_vo, bo):
        audit_trail = []

        def audit(requester, action, job_id, decision):
            audit_trail.append((decision.source, decision.outcome))

        callouts = make_callouts(ref_local, ref_vo)
        admit(gridmap, callouts, bo, self.GOOD_RSL, audit=audit)
        assert audit_trail == [("GATE", Outcome.PERMIT), ("PEP", Outcome.PERMIT)]
