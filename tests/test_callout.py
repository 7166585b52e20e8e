import pytest

from gridauthz.callout import (
    CalloutArgs,
    CalloutConfig,
    CalloutConfigError,
    CalloutOutcome,
    CalloutRegistry,
    CalloutResult,
    Callouts,
    DuplicateProvider,
    GRAM_AUTHZ,
    MissingBinding,
    denied,
    make_builtin_registry,
    parse_callout_config,
    success,
    system_failure,
)
from gridauthz.engine import Decision, Outcome, deny, error, permit
from gridauthz.rsl import apply_defaults, description_to_rsl, parse_rsl, to_job_description


def description(rsl):
    return apply_defaults(to_job_description(parse_rsl(rsl)))


def start_args(identity, rsl="&(executable=test1)(jobtag=ADS)(count=1)"):
    return CalloutArgs(requester=identity, action="start", description=description(rsl))


class TestParseCalloutConfig:
    def test_single_binding(self):
        config = parse_callout_config("gram-authz rsl-pep\n")
        assert config.bindings == {"gram-authz": "rsl-pep"}
        assert config.warnings == []

    def test_empty_config_then_missing_binding(self):
        config = parse_callout_config("")
        with pytest.raises(MissingBinding):
            config.require(GRAM_AUTHZ)

    def test_later_duplicate_overrides_with_warning(self):
        config = parse_callout_config("gram-authz allow-all\ngram-authz deny-all\n")
        assert config.bindings["gram-authz"] == "deny-all"
        assert len(config.warnings) == 1

    def test_malformed_line(self):
        with pytest.raises(CalloutConfigError) as e:
            parse_callout_config("gram-authz\n")
        assert e.value.line == 1


class TestRegistry:
    def test_register_and_retrieve(self):
        registry = CalloutRegistry()
        provider = lambda args: success()
        registry.register("audit-only", provider)
        assert registry.get("audit-only") is provider

    def test_duplicate_provider(self):
        registry = make_builtin_registry(lambda: (None, None))
        with pytest.raises(DuplicateProvider):
            registry.register("rsl-pep", lambda args: success())

    def test_builtins_present(self):
        registry = make_builtin_registry(lambda: (None, None))
        for name in ("rsl-pep", "allow-all", "deny-all"):
            assert registry.get(name) is not None


class TestInvoke:
    def test_deny_all(self, bo):
        callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "deny-all"}, []),
                            make_builtin_registry(lambda: (None, None)))
        result = callouts.invoke(GRAM_AUTHZ, start_args(bo))
        assert result.outcome is CalloutOutcome.DENIED
        assert result.decision.reason == "deny-all"

    def test_unbound_name_is_system_failure(self, bo):
        callouts = Callouts(CalloutConfig({}, []),
                            make_builtin_registry(lambda: (None, None)))
        result = callouts.invoke(GRAM_AUTHZ, start_args(bo))
        assert result.outcome is CalloutOutcome.SYSTEM_FAILURE

    def test_binding_to_unregistered_provider(self, bo):
        callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "akenti"}, []),
                            make_builtin_registry(lambda: (None, None)))
        result = callouts.invoke(GRAM_AUTHZ, start_args(bo))
        assert result.outcome is CalloutOutcome.SYSTEM_FAILURE

    def test_raising_provider_becomes_system_failure(self, bo):
        registry = CalloutRegistry()

        def boom(args):
            raise RuntimeError("backend down")

        registry.register("boom", boom)
        callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "boom"}, []), registry)
        result = callouts.invoke(GRAM_AUTHZ, start_args(bo))
        assert result.outcome is CalloutOutcome.SYSTEM_FAILURE
        assert "backend down" in result.decision.reason

    def test_rsl_pep_permits_kate_cancel_of_nfc_job(self, ref_local, ref_vo, bo, kate):
        from gridauthz.engine import JobContext

        callouts = Callouts(
            CalloutConfig({GRAM_AUTHZ: "rsl-pep"}, []),
            make_builtin_registry(lambda: (ref_local, ref_vo)))
        args = CalloutArgs(
            requester=kate, action="cancel",
            description=description("&(executable=test2)(jobtag=NFC)(count=1)"),
            initiator=bo, job_id="job-7",
            job_context=JobContext("job-7", bo, "NFC"))
        result = callouts.invoke(GRAM_AUTHZ, args)
        assert result.outcome is CalloutOutcome.SUCCESS


class TestResultMapping:
    def test_bijection(self):
        pairs = [
            (permit(), CalloutOutcome.SUCCESS),
            (deny("nope"), CalloutOutcome.DENIED),
            (error("boom"), CalloutOutcome.SYSTEM_FAILURE),
        ]
        for decision, outcome in pairs:
            assert CalloutResult(decision).outcome is outcome
            assert CalloutResult(decision).decision == decision
        # the callout layer's own decisions name it as their source
        assert success().decision == Decision(Outcome.PERMIT, "", "CALLOUT")
        assert denied("nope").decision == Decision(Outcome.DENY, "nope", "CALLOUT")
        assert system_failure("boom").decision == Decision(Outcome.ERROR, "boom", "CALLOUT")

    def test_denied_requires_reason(self):
        with pytest.raises(ValueError):
            denied("")


class TestCalloutArgs:
    def test_rsl_text_renders_the_description(self, bo):
        args = start_args(bo, "&(executable=test1)(jobtag=ADS)")
        assert description_to_rsl(args.description) == \
            "&(executable = test1)(jobtag = ADS)(count = 1)"

    def test_initiator_required_for_management(self, bo):
        with pytest.raises(ValueError):
            CalloutArgs(requester=bo, action="cancel", description=description("&(a=1)"))

    def test_no_initiator_for_start(self, bo, kate):
        with pytest.raises(ValueError):
            CalloutArgs(requester=bo, action="start", description=description("&(a=1)"),
                        initiator=kate)


def test_swapping_binding_flips_decisions_without_code_changes(
        tmp_path, ref_local, ref_vo, stranger):
    # same scenario under allow-all vs rsl-pep: only the binding differs
    registry = make_builtin_registry(lambda: (ref_local, ref_vo))
    args = start_args(stranger)
    permissive = Callouts(CalloutConfig({GRAM_AUTHZ: "allow-all"}, []), registry)
    strict = Callouts(CalloutConfig({GRAM_AUTHZ: "rsl-pep"}, []), registry)
    assert permissive.invoke(GRAM_AUTHZ, args).outcome is CalloutOutcome.SUCCESS
    assert strict.invoke(GRAM_AUTHZ, args).outcome is CalloutOutcome.DENIED
