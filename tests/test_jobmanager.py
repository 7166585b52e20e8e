import random

import pytest

from gridauthz.callout import CalloutConfig, Callouts, GRAM_AUTHZ, make_builtin_registry
from gridauthz.engine import permit
from gridauthz.gatekeeper import AdmissionTicket, PolicyDenied, admit, parse_gridmap
from gridauthz.jobmanager import (
    ClockRegression,
    DuplicateTicket,
    InvalidTransition,
    JobManager,
    JobManagerConfig,
    JobState,
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    UnknownJob,
)
from gridauthz.policy import parse_policy
from gridauthz.rsl import read_job_description
from gridauthz.service import replay_events

from conftest import FIXTURES


ADMIN_POLICY = """\
/O=Grid:
&(action != NULL)

/O=Admin/CN=Root:
&(action=signal)(jobtag != NULL)
&(action=information)(jobtag != NULL)
"""


def make_jm(ref_local, ref_vo, binding="rsl-pep", slots=2,
            self_management=True, local_text=None):
    local = parse_policy(local_text, "LOCAL") if local_text else ref_local
    registry = make_builtin_registry(lambda: (local, ref_vo))
    callouts = Callouts(CalloutConfig({GRAM_AUTHZ: binding}, []), registry)
    jm = JobManager(callouts, JobManagerConfig(slots=slots, self_management=self_management))
    return jm, callouts


def admit_bo(callouts, bo, rsl="&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)"):
    gridmap = parse_gridmap((FIXTURES / "gridmap").read_text())
    return admit(gridmap, callouts, bo, rsl)


@pytest.fixture
def jm_and_ticket(ref_local, ref_vo, bo):
    jm, callouts = make_jm(ref_local, ref_vo)
    return jm, admit_bo(callouts, bo)


class TestSubmit:
    def test_new_record_pending(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        assert record.state is JobState.PENDING
        assert record.jobtag == "NFC"
        assert record.owner == bo
        assert record.account == "bliu"
        assert record.history[0].event == "created"

    def test_maxtime_becomes_duration(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo)
        ticket = admit_bo(
            callouts, bo,
            "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)(maxtime=5)")
        assert jm.submit(ticket).duration == 5

    def test_default_duration(self, jm_and_ticket):
        jm, ticket = jm_and_ticket
        assert jm.submit(ticket).duration == 10

    def test_duplicate_ticket_rejected(self, jm_and_ticket):
        jm, ticket = jm_and_ticket
        jm.submit(ticket)
        with pytest.raises(DuplicateTicket):
            jm.submit(ticket)

    def test_job_ids_monotone(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo)
        ids = [jm.submit(admit_bo(callouts, bo)).job_id for _ in range(3)]
        assert ids == ["job-1", "job-2", "job-3"]

    def test_jobtag_optional(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo, binding="allow-all")
        ticket = admit_bo(callouts, bo, "&(executable=anything)")
        assert jm.submit(ticket).jobtag is None


class TestManagementAuthorization:
    def test_owner_self_management_without_callout(self, ref_local, ref_vo, bo):
        # deny-all PEP: only the GT2 self rule can permit
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(callouts, bo))
        jm.callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "deny-all"}, []),
                               make_builtin_registry(lambda: (ref_local, ref_vo)))
        assert jm.authorize_management(record, bo, "cancel").is_permit

    def test_kate_cancels_bo_nfc_job(self, ref_local, ref_vo, bo, kate):
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(callouts, bo))
        assert jm.authorize_management(record, kate, "cancel").is_permit

    def test_kate_denied_on_ads_job(self, ref_local, ref_vo, bo, kate):
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(
            callouts, bo,
            "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)"))
        decision = jm.authorize_management(record, kate, "cancel")
        assert not decision.is_permit

    def test_self_management_off_denies_owner_under_deny_all(
            self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo, binding="deny-all",
                               self_management=False)
        record = jm.submit(admit_bo_with_allow(ref_local, ref_vo, bo))
        assert not jm.authorize_management(record, bo, "cancel").is_permit


def admit_bo_with_allow(ref_local, ref_vo, bo):
    registry = make_builtin_registry(lambda: (ref_local, ref_vo))
    callouts = Callouts(CalloutConfig({GRAM_AUTHZ: "allow-all"}, []), registry)
    return admit_bo(callouts, bo)


class TestLifecycle:
    def test_cancel_pending(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        assert jm.cancel(record.job_id, bo).state is JobState.CANCELED

    def test_cancel_terminal_is_invalid_transition(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        jm.cancel(record.job_id, bo)
        with pytest.raises(InvalidTransition):
            jm.cancel(record.job_id, bo)

    def test_cancel_records_requesting_actor(self, ref_local, ref_vo, bo, kate):
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(callouts, bo))
        jm.cancel(record.job_id, kate)
        assert record.history[-1].actor == kate.render()

    def test_unknown_job(self, jm_and_ticket, bo):
        jm, _ = jm_and_ticket
        with pytest.raises(UnknownJob):
            jm.cancel("job-99", bo)

    def test_suspend_resume_cycle(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        jm.tick(1)
        assert record.state is JobState.ACTIVE
        jm.signal(record.job_id, bo, "suspend")
        assert record.state is JobState.SUSPENDED
        with pytest.raises(InvalidTransition):
            jm.signal(record.job_id, bo, "suspend")
        jm.signal(record.job_id, bo, "resume")
        assert record.state is JobState.ACTIVE

    def test_suspend_pending_is_invalid(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        with pytest.raises(InvalidTransition):
            jm.signal(record.job_id, bo, "suspend")

    def test_priority_signal(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        jm.signal(record.job_id, bo, "priority", 5)
        assert record.priority == 5

    def test_priority_requires_value(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        with pytest.raises(ValueError):
            jm.signal(record.job_id, bo, "priority")

    def test_status_view(self, jm_and_ticket, bo):
        jm, ticket = jm_and_ticket
        record = jm.submit(ticket)
        view = jm.status(record.job_id, bo)
        assert view["state"] == "PENDING"
        assert view["owner"] == bo.render()
        assert view["jobtag"] == "NFC"

    def test_status_denied_for_stranger(self, ref_local, ref_vo, bo, stranger):
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(callouts, bo))
        with pytest.raises(PolicyDenied):
            jm.status(record.job_id, stranger)


class TestScheduler:
    def test_priority_dispatch_order(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo, slots=1)
        first = jm.submit(admit_bo(callouts, bo))
        second = jm.submit(admit_bo(callouts, bo))
        jm.signal(second.job_id, bo, "priority", 5)
        jm.tick(1)
        assert second.state is JobState.ACTIVE
        assert first.state is JobState.PENDING

    def test_duration_accumulation(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(
            callouts, bo,
            "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)(maxtime=3)"))
        jm.tick(1)
        for now in (2, 3, 4):
            jm.tick(now)
        assert record.state is JobState.DONE
        assert record.ended_at == 4  # dispatched at 1, duration 3

    def test_suspension_excluded_from_active_time(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo)
        record = jm.submit(admit_bo(
            callouts, bo,
            "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)(maxtime=3)"))
        jm.tick(1)            # ACTIVE at 1
        jm.tick(3)            # 2 of 3 units done
        jm.signal(record.job_id, bo, "suspend")
        jm.tick(7)            # suspended: no progress
        assert record.state is JobState.SUSPENDED
        jm.signal(record.job_id, bo, "resume")
        jm.tick(8)            # 1 more unit completes the job
        assert record.state is JobState.DONE
        assert record.ended_at == 8

    def test_clock_regression(self, jm_and_ticket):
        jm, _ = jm_and_ticket
        jm.tick(5)
        with pytest.raises(ClockRegression):
            jm.tick(4)

    def test_active_count_bounded_by_slots(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo, slots=2)
        records = [jm.submit(admit_bo(callouts, bo)) for _ in range(5)]
        jm.tick(1)
        active = [r for r in records if r.state is JobState.ACTIVE]
        assert len(active) == 2

    def test_resume_without_free_slot_rejected(self, ref_local, ref_vo, bo):
        jm, callouts = make_jm(ref_local, ref_vo, slots=1)
        a = jm.submit(admit_bo(callouts, bo))
        b = jm.submit(admit_bo(callouts, bo))
        jm.tick(1)
        jm.signal(a.job_id, bo, "suspend")
        jm.tick(2)  # b takes the freed slot
        assert b.state is JobState.ACTIVE
        with pytest.raises(InvalidTransition):
            jm.signal(a.job_id, bo, "resume")

    def test_determinism(self, ref_local, ref_vo, bo):
        def run():
            jm, callouts = make_jm(ref_local, ref_vo, slots=1)
            r1 = jm.submit(admit_bo(callouts, bo))
            r2 = jm.submit(admit_bo(callouts, bo))
            jm.tick(1)
            jm.signal(r1.job_id, bo, "suspend")
            jm.tick(3)
            jm.cancel(r2.job_id, bo)
            jm.tick(20)
            return jm.snapshot()

        assert run() == run()


class TestListJobs:
    @pytest.fixture
    def populated(self, ref_local, ref_vo, bo, kate):
        jm, callouts = make_jm(ref_local, ref_vo)
        jm.submit(admit_bo(callouts, bo))  # NFC
        jm.submit(admit_bo(
            callouts, bo,
            "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=1)"))
        gridmap = parse_gridmap((FIXTURES / "gridmap").read_text())
        jm.submit(admit(
            gridmap, callouts, kate,
            "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"))
        return jm

    def test_filter_by_jobtag(self, populated):
        views = populated.list_jobs(jobtag="NFC")
        assert [v["job_id"] for v in views] == ["job-1", "job-3"]

    def test_no_filter_lists_all(self, populated):
        assert len(populated.list_jobs()) == 3

    def test_conjunction_of_filters(self, populated, bo, kate):
        populated.cancel("job-1", kate)
        views = populated.list_jobs(owner=bo, state=JobState.CANCELED)
        assert [v["job_id"] for v in views] == ["job-1"]


def test_state_machine_safety_random_commands(ref_local, ref_vo, bo):
    rng = random.Random(20240817)
    jm, callouts = make_jm(ref_local, ref_vo, binding="allow-all", slots=2)
    ticket_rsl = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)(maxtime=4)"
    now = 0
    for _ in range(400):
        op = rng.random()
        try:
            if op < 0.2:
                jm.submit(admit_bo(callouts, bo, ticket_rsl))
            elif op < 0.4 and jm.jobs:
                jm.cancel(rng.choice(list(jm.jobs)), bo)
            elif op < 0.7 and jm.jobs:
                kind = rng.choice(("suspend", "resume", "priority"))
                value = rng.randint(-3, 5) if kind == "priority" else None
                jm.signal(rng.choice(list(jm.jobs)), bo, kind, value)
            else:
                now += rng.randint(0, 3)
                jm.tick(now)
        except InvalidTransition:
            pass
        active = sum(1 for r in jm.jobs.values() if r.state is JobState.ACTIVE)
        assert active <= 2
    # replaying each job's history must follow only legal transitions
    for record in jm.jobs.values():
        state = JobState.PENDING
        for event in record.history:
            nxt = {"dispatched": JobState.ACTIVE, "suspended": JobState.SUSPENDED,
                   "resumed": JobState.ACTIVE, "done": JobState.DONE,
                   "canceled": JobState.CANCELED}.get(event.event)
            if nxt is None:
                continue  # created / priority-changed
            assert nxt in LEGAL_TRANSITIONS[state]
            state = nxt
        if state in TERMINAL_STATES:
            assert record.state is state


# -- the live-job set ------------------------------------------------------


def ticket(owner, rsl):
    """A permitted admission, without the gate and the callout."""
    return AdmissionTicket("ticket", owner, "bliu", rsl, read_job_description(rsl), permit())


def assert_live_set(jm):
    by_seq = sorted(jm.jobs.values(), key=lambda r: r.seq)
    assert list(jm._live) == [r.job_id for r in by_seq if r.state not in TERMINAL_STATES]
    for state in JobState:
        assert jm.list_jobs(state=state) == [
            r.status_view() for r in by_seq if r.state is state]


def logged(events):
    """on_event hook keeping each event as the event log would read it back."""
    def on_event(record, event, actor, time, payload):
        events.append({"seq": str(len(events) + 1), "time": time, "job": record.job_id,
                       "event": event, "actor": actor,
                       **{k: "-" if v is None else str(v) for k, v in payload.items()}})
    return on_event


@pytest.mark.parametrize("seed", range(3))
def test_live_set_after_random_commands_and_replay(seed, bo):
    rng = random.Random(seed)
    events = []
    jm = JobManager(None, JobManagerConfig(slots=2), on_event=logged(events))
    now = 0
    for _ in range(400):
        op = rng.random()
        try:
            if op < 0.3:
                jm.submit(ticket(bo, f"&(executable=x)(maxtime={rng.randint(1, 4)})"))
            elif op < 0.4 and jm.jobs:
                jm.cancel(rng.choice(list(jm.jobs)), bo)
            elif op < 0.7 and jm.jobs:
                kind = rng.choice(("suspend", "resume", "priority"))
                value = rng.randint(-3, 5) if kind == "priority" else None
                jm.signal(rng.choice(list(jm.jobs)), bo, kind, value)
            else:
                now += rng.randint(0, 3)
                jm.tick(now)
        except InvalidTransition:
            pass
        assert_live_set(jm)
    assert jm._live and len(jm._live) < len(jm.jobs)
    replayed = replay_events(events, JobManager(None, JobManagerConfig(slots=2)))
    assert replayed.snapshot() == jm.snapshot()
    assert_live_set(replayed)


def test_tick_ignores_finished_jobs(bo):
    def run(finished):
        jm = JobManager(None, JobManagerConfig(slots=2))
        for _ in range(finished):
            jm.cancel(jm.submit(ticket(bo, "&(executable=x)")).job_id, bo)
        live = [jm.submit(ticket(bo, f"&(executable=x)(maxtime={n})")) for n in (3, 1, 2, 5)]
        jm.signal(live[2].job_id, bo, "priority", 4)
        changes = [jm.tick(1)]
        jm.signal(live[2].job_id, bo, "suspend")
        changes += [jm.tick(t) for t in (2, 3, 5, 9, 20)]
        # job ids renumbered as if the finished jobs had never been there
        return [[(int(job_id.split("-")[1]) - finished, state) for job_id, state in tick]
                for tick in changes]

    assert run(10_000) == run(0)
