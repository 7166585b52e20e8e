"""End-to-end acceptance checks.

Each test covers one acceptance criterion; a terminal-summary hook in
conftest prints one ``[PASS]``/``[FAIL]`` line per criterion so a suite
run doubles as a checklist.
"""

import random

import pytest

from gridauthz.callout import (
    CalloutConfig,
    Callouts,
    GRAM_AUTHZ,
    make_builtin_registry,
    system_failure,
)
from gridauthz.engine import (
    Outcome,
    authorize,
    combine_decisions,
    evaluate_document,
    permit,
)
from gridauthz.gatekeeper import PolicyFailure, admit, parse_gridmap
from gridauthz.jobmanager import (
    InvalidTransition,
    JobManager,
    JobManagerConfig,
    JobState,
    TERMINAL_STATES,
)
from gridauthz.policy import (
    GridIdentity,
    empty_document,
    parse_policy,
    render_policy,
)
from gridauthz.rsl import parse_rsl, render_rsl
from gridauthz.service import (
    Service,
    ServiceConfig,
    read_audit_log,
    read_event_log,
    replay_events,
)

from conftest import (
    BO_DN,
    FIXTURES,
    KATE_DN,
    STRANGER_DN,
    management_request,
    random_conjunction,
    random_document,
    random_request,
    start_request,
    write_service_tree,
)


def criterion(label):
    def decorate(fn):
        fn.criterion_label = label
        return fn
    return decorate


def outcome_of(local, vo, req):
    decision, _ = authorize(local, vo, req)
    return decision.outcome


# ---------------------------------------------------------------------------
# 1. Reference scenario suite


@criterion("criterion 1: reference scenario suite")
def test_reference_scenarios(ref_local, ref_vo, bo, kate, stranger):
    def start(identity, executable, jobtag=None, count=1, directory="/sandbox/test"):
        parts = [f"(executable={executable})", f"(directory={directory})",
                 f"(count={count})"]
        if jobtag is not None:
            parts.append(f"(jobtag={jobtag})")
        return outcome_of(ref_local, ref_vo,
                          start_request(identity, "&" + "".join(parts)))

    def cancel(identity, owner, jobtag):
        return outcome_of(ref_local, ref_vo,
                          management_request(identity, "cancel", owner, jobtag))

    # Bo may start his two applications while under the instance limit
    for count in (1, 2, 3):
        assert start(bo, "test1", "ADS", count) is Outcome.PERMIT
        assert start(bo, "test2", "NFC", count) is Outcome.PERMIT
    # ... but not a fourth instance, another executable, or another directory
    assert start(bo, "test1", "ADS", 4) is Outcome.DENY
    assert start(bo, "test2", "NFC", 4) is Outcome.DENY
    assert start(bo, "test3", "ADS") is Outcome.DENY
    assert start(bo, "test1", "ADS", directory="/tmp/other") is Outcome.DENY
    # the group requirement blocks any untagged start from the site
    assert start(bo, "test1") is Outcome.DENY
    other_member = GridIdentity.parse(
        "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Someone Else")
    assert start(other_member, "test1") is Outcome.DENY
    # Kate runs the shared application and manages any NFC job
    assert start(kate, "TRANSP", "NFC") is Outcome.PERMIT
    assert cancel(kate, bo, "NFC") is Outcome.PERMIT
    assert cancel(kate, kate, "NFC") is Outcome.PERMIT
    assert cancel(kate, bo, "ADS") is Outcome.DENY
    # outsiders get nothing
    assert start(stranger, "test1", "ADS") is Outcome.DENY
    assert start(stranger, "TRANSP", "NFC") is Outcome.DENY
    assert cancel(stranger, bo, "NFC") is Outcome.DENY


# ---------------------------------------------------------------------------
# 2. Default deny


@criterion("criterion 2: default deny on empty policy")
def test_default_deny():
    rng = random.Random(2)
    local = empty_document("LOCAL")
    vo = empty_document("VO")
    for _ in range(1000):
        req = random_request(rng)
        assert outcome_of(local, vo, req) is Outcome.DENY


# ---------------------------------------------------------------------------
# 3. Oracle equivalence on the exhaustive request domain


GROUP_PREFIX = "/O=Grid/O=Globus/OU=mcs.anl.gov"


def reference_verdict(dn, action, executable, count, jobtag):
    """Brute-force re-statement of the bundled policy over plain values.

    Written independently of the engine: no shared data structures,
    just the policy's meaning spelled out as conditionals.
    """
    if dn.startswith(GROUP_PREFIX + "/") or dn == GROUP_PREFIX:
        if action == "start" and jobtag is None:
            return "DENY"
    permitted = False
    if dn == BO_DN and action == "start":
        permitted = (
            (executable == "test1" and jobtag == "ADS" and count < 4)
            or (executable == "test2" and jobtag == "NFC" and count < 4)
        )
    elif dn == KATE_DN and action == "start":
        permitted = executable == "TRANSP" and jobtag == "NFC"
    elif dn == KATE_DN and action == "cancel":
        permitted = jobtag == "NFC"
    return "PERMIT" if permitted else "DENY"


@criterion("criterion 3: engine agrees with brute-force oracle on full domain")
def test_oracle_equivalence(ref_local, ref_vo, bo, kate, stranger):
    identities = {BO_DN: bo, KATE_DN: kate, STRANGER_DN: stranger}
    checked = 0
    for dn, identity in identities.items():
        for action in ("start", "cancel"):
            for executable in ("test1", "test2", "TRANSP"):
                for count in range(1, 6):
                    for jobtag in ("ADS", "NFC", None):
                        if action == "start":
                            parts = [f"(executable={executable})",
                                     "(directory=/sandbox/test)",
                                     f"(count={count})"]
                            if jobtag is not None:
                                parts.append(f"(jobtag={jobtag})")
                            req = start_request(identity, "&" + "".join(parts))
                        else:
                            req = management_request(identity, "cancel", bo, jobtag)
                        got = outcome_of(ref_local, ref_vo, req).value
                        want = reference_verdict(dn, action, executable, count, jobtag)
                        assert got == want, (dn, action, executable, count, jobtag)
                        checked += 1
    assert checked == 3 * 2 * 3 * 5 * 3


# ---------------------------------------------------------------------------
# 4. Conjunctive combination of the two policy sources


@criterion("criterion 4: combined decision is the conjunction of both sources")
def test_combination_conjunction(ref_local, ref_vo, bo):
    rng = random.Random(4)
    for _ in range(1000):
        local = random_document(rng, "LOCAL")
        vo = random_document(rng, "VO")
        req = random_request(rng)
        local_dec, _ = evaluate_document(local, req)
        vo_dec, _ = evaluate_document(vo, req)
        combined, _ = authorize(local, vo, req)
        assert combined.is_permit == (local_dec.is_permit and vo_dec.is_permit)

    # a faulting provider turns the whole pipeline into an error, even when
    # the policy sources would have permitted the request
    for other in (permit(), system_failure("injected").decision):
        assert combine_decisions(
            system_failure("injected").decision, other
        ).outcome is Outcome.ERROR

    registry = make_builtin_registry(lambda: (ref_local, ref_vo))
    registry.register("fault-injector", lambda args: system_failure("backend down"))
    callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "fault-injector"}, []), registry)
    gridmap = parse_gridmap((FIXTURES / "gridmap").read_text())
    with pytest.raises(PolicyFailure):
        admit(gridmap, callouts, bo,
              "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)")


# ---------------------------------------------------------------------------
# 5. Parser round trips


@criterion("criterion 5: policy and request parsers reach a render fixpoint")
def test_parser_round_trips():
    rng = random.Random(5)
    for _ in range(500):
        doc = random_document(rng)
        text1 = render_policy(doc)
        reparsed = parse_policy(text1, doc.source)
        assert [(s.subject, s.kind, s.rule) for s in reparsed.statements] == \
               [(s.subject, s.kind, s.rule) for s in doc.statements]
        assert render_policy(reparsed) == text1
    for _ in range(500):
        conj = random_conjunction(rng)
        text1 = render_rsl(conj)
        reparsed = parse_rsl(text1)
        assert reparsed == conj
        assert render_rsl(reparsed) == text1


# ---------------------------------------------------------------------------
# 6. Owner self-management under a deny-all authorization service


@criterion("criterion 6: self-management permits exactly the job owner")
def test_self_management_compatibility(bo, kate):
    rng = random.Random(6)
    gridmap = parse_gridmap((FIXTURES / "gridmap").read_text())
    registry = make_builtin_registry(lambda: (None, None))
    admitting = Callouts(CalloutConfig({GRAM_AUTHZ: "allow-all"}, []), registry)
    deny_all = Callouts(CalloutConfig({GRAM_AUTHZ: "deny-all"}, []), registry)
    jm = JobManager(deny_all, JobManagerConfig(slots=2, self_management=True))
    identities = (bo, kate)
    for _ in range(50):
        owner = rng.choice(identities)
        jm.submit(admit(gridmap, admitting, owner, "&(executable=x)(maxtime=2)"))
    for _ in range(500):
        job_id = rng.choice(list(jm.jobs))
        requester = rng.choice(identities)
        action = rng.choice(("cancel", "information", "signal"))
        decision = jm.authorize_management(jm.jobs[job_id], requester, action)
        assert decision.is_permit == (requester == jm.jobs[job_id].owner)


# ---------------------------------------------------------------------------
# 7. State machine safety under random command streams


def _check_completion_accounting(record):
    """Recompute the finish instant from the job's own history."""
    if record.state is not JobState.DONE:
        return
    accumulated = 0
    run_start = None
    for event in record.history:
        if event.event in ("dispatched", "resumed"):
            run_start = event.time
        elif event.event == "suspended":
            accumulated += event.time - run_start
            run_start = None
        elif event.event == "done":
            assert run_start is not None
            expected_finish = run_start + (record.duration - accumulated)
            assert event.time == expected_finish
            assert record.ended_at == expected_finish


@criterion("criterion 7: no illegal transitions across 10,000 random commands")
def test_state_machine_safety(bo, kate):
    rng = random.Random(7)
    gridmap = parse_gridmap((FIXTURES / "gridmap").read_text())
    registry = make_builtin_registry(lambda: (None, None))
    callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "allow-all"}, []), registry)
    commands = 0
    for episode in range(25):
        slots = rng.randint(1, 3)
        jm = JobManager(callouts, JobManagerConfig(slots=slots))
        now = 0
        for _ in range(400):
            commands += 1
            roll = rng.random()
            try:
                if roll < 0.22:
                    owner = rng.choice((bo, kate))
                    jm.submit(admit(gridmap, callouts, owner,
                                    f"&(executable=x)(maxtime={rng.randint(1, 6)})"))
                elif roll < 0.40 and jm.jobs:
                    jm.cancel(rng.choice(list(jm.jobs)), bo)
                elif roll < 0.72 and jm.jobs:
                    kind = rng.choice(("suspend", "resume", "priority"))
                    value = rng.randint(-2, 9) if kind == "priority" else None
                    jm.signal(rng.choice(list(jm.jobs)), bo, kind, value)
                else:
                    now += rng.randint(0, 3)
                    jm.tick(now)
            except InvalidTransition:
                pass
            active = sum(1 for r in jm.jobs.values() if r.state is JobState.ACTIVE)
            assert active <= slots
        # terminal states absorb every further command
        for record in jm.jobs.values():
            if record.state in TERMINAL_STATES:
                frozen = record.state
                with pytest.raises(InvalidTransition):
                    jm.cancel(record.job_id, bo)
                assert record.state is frozen
            _check_completion_accounting(record)
    assert commands == 10_000


# ---------------------------------------------------------------------------
# 8. Audit completeness and event-log replay


@criterion("criterion 8: every decision audited; replay rebuilds the job table")
def test_audit_and_replay(tmp_path):
    reference_text = (FIXTURES / "reference.policy").read_text()
    extended = (FIXTURES / "reference_extended.policy").read_text()
    config_path = write_service_tree(tmp_path, reference_text, reference_text)
    service = Service(ServiceConfig.from_file(config_path))
    try:
        bo_submit = (
            f'SUBMIT dn="{BO_DN}" '
            'rsl="&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)(maxtime=50)"'
        )
        assert service.handle_request(bo_submit) == "OK job-1 PENDING"
        assert service.handle_request('TICK now="1"') == "OK time=1 job-1:ACTIVE"
        suspend = f'SIGNAL dn="{KATE_DN}" job="job-1" kind="suspend"'
        assert service.handle_request(suspend).startswith("E-DENY")
        (tmp_path / "local.policy").write_text(extended)
        (tmp_path / "vo.policy").write_text(extended)
        assert service.handle_request("RELOAD") == "OK reloaded"
        assert service.handle_request(suspend) == "OK job-1 SUSPENDED"
        assert service.handle_request(
            f'CANCEL dn="{KATE_DN}" job="job-1"') == "OK job-1 CANCELED"
        assert service.handle_request(
            f'SUBMIT dn="{KATE_DN}" '
            'rsl="&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(maxtime=3)"'
        ) == "OK job-2 PENDING"
        assert service.handle_request(
            f'SIGNAL dn="{KATE_DN}" job="job-2" kind="priority" value="5"'
        ) == "OK job-2 PRIORITY 5"
        assert service.handle_request('TICK now="2"') == "OK time=2 job-2:ACTIVE"
        assert service.handle_request('TICK now="9"') == "OK time=9 job-2:DONE"
        snapshot = service.jobmanager.snapshot()
        callouts = service.callouts
    finally:
        service.close()

    # exactly one audit record per authorization decision, in order
    records = read_audit_log(tmp_path / "audit.log")
    assert [int(r["seq"]) for r in records] == list(range(1, len(records) + 1))
    assert [(r["source"], r["decision"]) for r in records] == [
        ("GATE", "PERMIT"),       # Bo passes the account gate
        ("PEP", "PERMIT"),        # Bo's start is allowed by policy
        ("LOCAL-PEP", "DENY"),    # Kate's suspend rejected pre-reload
        ("PEP", "PERMIT"),        # ... allowed after the policy swap
        ("PEP", "PERMIT"),        # Kate cancels Bo's job
        ("GATE", "PERMIT"),       # Kate passes the gate
        ("PEP", "PERMIT"),        # Kate's own start
        ("SELF-RULE", "PERMIT"),  # Kate reprioritizes her own job
    ]

    # replaying the event log reconstructs the job table byte for byte
    events = read_event_log(tmp_path / "events.log")
    fresh = JobManager(callouts, JobManagerConfig(slots=2))
    replay_events(events, fresh)
    assert fresh.snapshot() == snapshot

    # a restarted service picks up the same table
    restarted = Service(ServiceConfig.from_file(config_path))
    try:
        assert restarted.jobmanager.snapshot() == snapshot
    finally:
        restarted.close()
