"""Job manager: policy-mediated lifecycle control over simulated jobs.

Virtual time advances only through explicit tick() calls, which makes
every lifecycle test deterministic.  Dispatch order is priority
descending, then submission order; completed active time is accounted
from the dispatch/resume timestamps so completion instants are exact.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

from .callout import CalloutArgs, Callouts, GRAM_AUTHZ
from .engine import Decision, JobContext, MANAGEMENT_ACTIONS, Outcome
from .gatekeeper import AdmissionTicket, PolicyDenied, require_permit
from .policy import GridIdentity
from .rsl import JobDescription, int_value, read_job_description, value_text

DEFAULT_DURATION = 10
# a job owner manages their own job without a callout
SELF_RULE = Decision(Outcome.PERMIT, "", "SELF-RULE")


class JobState(str, Enum):
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    SUSPENDED = "SUSPENDED"
    DONE = "DONE"
    CANCELED = "CANCELED"


LEGAL_TRANSITIONS = {
    JobState.PENDING: {JobState.ACTIVE, JobState.CANCELED},
    JobState.ACTIVE: {JobState.SUSPENDED, JobState.DONE, JobState.CANCELED},
    JobState.SUSPENDED: {JobState.ACTIVE, JobState.CANCELED},
    JobState.DONE: set(),
    JobState.CANCELED: set(),
}

TERMINAL_STATES = {JobState.DONE, JobState.CANCELED}

SIGNAL_KINDS = ("suspend", "resume", "priority")

# job event -> (the state it moves a job to, the one state it must leave,
# or None for any state LEGAL_TRANSITIONS allows)
STATE_EVENTS = {
    "dispatched": (JobState.ACTIVE, JobState.PENDING),
    "resumed": (JobState.ACTIVE, JobState.SUSPENDED),
    "suspended": (JobState.SUSPENDED, None),
    "done": (JobState.DONE, None),
    "canceled": (JobState.CANCELED, None),
}


def jobtag_and_duration(description: JobDescription) -> tuple[str | None, int]:
    """A job's jobtag and run time, as its description gives them."""
    jobtag = description.get("jobtag")
    maxtime = description.get("maxtime")
    duration = int_value(maxtime[0]) if maxtime else None
    return (value_text(jobtag[0]) if jobtag else None,
            duration if duration is not None and duration > 0 else DEFAULT_DURATION)


class JobManagerError(Exception):
    pass


class UnknownJob(JobManagerError):
    def __init__(self, job_id: str):
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


class InvalidTransition(JobManagerError):
    def __init__(self, job_id: str, state: JobState, detail: str):
        self.job_id = job_id
        self.state = state
        super().__init__(f"{job_id}: {detail} (state {state.value})")


class DuplicateTicket(JobManagerError):
    def __init__(self, ticket_id: str):
        super().__init__(f"admission ticket {ticket_id} already submitted")


class ClockRegression(JobManagerError):
    def __init__(self, now: int, clock: int):
        super().__init__(f"tick time {now} earlier than current time {clock}")


# slots on both records: the table keeps every job, and every job every event
@dataclass(slots=True)
class HistoryEvent:
    time: int
    event: str
    actor: str


@dataclass(slots=True)
class JobRecord:
    job_id: str
    owner: GridIdentity
    account: str
    jobtag: str | None
    # the RSL text its SUBMIT carried; the event log and checkpoint hold it
    rsl: str
    state: JobState = JobState.PENDING
    priority: int = 0
    duration: int = DEFAULT_DURATION
    started_at: int | None = None
    ended_at: int | None = None
    history: list[HistoryEvent] = field(default_factory=list)
    # scheduler accounting
    active_time: int = 0
    active_since: int | None = None
    # ``rsl`` as admission read it; a restored job reads it on first use
    parsed: JobDescription | None = None

    @property
    def description(self) -> JobDescription:
        if self.parsed is None:
            self.parsed = read_job_description(self.rsl)
        return self.parsed

    @property
    def seq(self) -> int:
        return int(self.job_id.rsplit("-", 1)[1])

    def status_view(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "owner": self.owner.render(),
            "account": self.account,
            "jobtag": self.jobtag,
            "priority": self.priority,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "history_length": len(self.history),
        }


class JobTable(Mapping):
    """Every job ever created, by id, in creation order (id order).  A job
    restored finished is held as its checkpoint row, one line of bytes,
    until a read builds its JobRecord with ``build`` for good; ``build`` is
    None once no row can be left.  ``held`` gives each job as held; no held
    row's history goes past ``rows_clock``."""

    def __init__(self):
        self._held: dict[str, JobRecord | bytes] = {}
        self.build = None
        self.rows_clock = 0

    def __getitem__(self, job_id: str) -> JobRecord:
        record = self._held[job_id]
        if record.__class__ is bytes:
            record = self._held[job_id] = self.build(record, job_id)
        return record

    def __setitem__(self, job_id: str, record: JobRecord | bytes):
        self._held[job_id] = record

    def __iter__(self):
        return iter(self._held)

    def __len__(self) -> int:
        return len(self._held)

    def values(self):
        """Every job's record, any row left built first, as a dict view."""
        if self.build is not None:
            held = self._held
            for job_id, record in held.items():
                if record.__class__ is bytes:
                    held[job_id] = self.build(record, job_id)
            self.build = None  # no row is left to build
        return self._held.values()

    def held(self):
        return self._held.values()


@dataclass
class JobManagerConfig:
    slots: int = 1
    self_management: bool = True

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError("slots must be >= 1")


class JobManager:
    """Single-writer job table with a simulated local scheduler.

    It takes no lock of its own: ``Service._lock`` serialises every call
    into it."""

    def __init__(self, callouts: Callouts, config: JobManagerConfig,
                 audit=None, on_event=None):
        self.callouts = callouts
        self.config = config
        self.audit = audit
        self.on_event = on_event
        self.clock = 0
        # every job ever created, and the ones not yet finished; both in
        # creation order, which is job id order.  The live set is an
        # OrderedDict because its iteration follows a linked list of the
        # jobs in it: a dict's walks every slot that a finished job left
        # behind, until the dict happens to resize.
        self.jobs = JobTable()
        self._live: OrderedDict[str, JobRecord] = OrderedDict()
        # one identity per owner DN, shared by all of that owner's jobs
        self._owners: dict[str, GridIdentity] = {}
        self._next_id = 1

    # -- helpers ---------------------------------------------------------

    def _emit(self, record: JobRecord, event: str, actor: str, time: int, **payload):
        record.history.append(HistoryEvent(time, event, actor))
        if self.on_event:
            self.on_event(record, event, actor, time, payload)

    def _apply(self, record: JobRecord, event: str, actor: str, time: int, **payload):
        """Apply one job event: the only change made to a job after it is created.

        Live operations call it once their own checks pass; replay calls it
        for every logged event after ``created``.
        """
        if event == "priority-changed":
            if record.state in TERMINAL_STATES:
                raise InvalidTransition(record.job_id, record.state,
                                        "cannot change priority of a finished job")
            record.priority = int(payload["value"])
        elif event in STATE_EVENTS:
            new_state, source = STATE_EVENTS[event]
            if new_state not in LEGAL_TRANSITIONS[record.state] or \
                    source not in (None, record.state):
                raise InvalidTransition(
                    record.job_id, record.state,
                    f"cannot move to {new_state.value}")
            if record.active_since is not None:
                record.active_time += time - record.active_since
                record.active_since = None
            record.state = new_state
            if new_state is JobState.ACTIVE:
                record.active_since = time
                if event == "dispatched":
                    record.started_at = time
            elif new_state in TERMINAL_STATES:
                record.ended_at = time
                del self._live[record.job_id]
        else:
            raise ValueError(f"unknown job event {event!r}")
        self._emit(record, event, actor, time, **payload)

    def _add(self, record: JobRecord):
        """Enter a new job; ids must ascend, so creation order is id order."""
        if record.seq < self._next_id:
            raise ValueError(f"job {record.job_id} created out of order")
        self.jobs[record.job_id] = record
        self._live[record.job_id] = record
        self._next_id = record.seq + 1

    def _owner(self, dn: str, identity: GridIdentity | None = None) -> GridIdentity:
        owner = self._owners.get(dn)
        if owner is None:
            owner = self._owners[dn] = identity or GridIdentity.parse(dn)
        return owner

    def _get(self, job_id: str) -> JobRecord:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def _active_count(self) -> int:
        return sum(1 for r in self._live.values() if r.state is JobState.ACTIVE)

    # -- submission ------------------------------------------------------

    def submit(self, ticket: AdmissionTicket) -> JobRecord:
        if not ticket.decision.is_permit:
            raise PolicyDenied(ticket.decision.reason or "admission not permitted")
        if ticket.submitted:
            raise DuplicateTicket(ticket.ticket_id)
        ticket.submitted = True
        jobtag, duration = jobtag_and_duration(ticket.description)
        dn = ticket.requester.render()
        record = JobRecord(
            job_id=f"job-{self._next_id}",
            owner=self._owner(dn, ticket.requester),
            account=ticket.account,
            jobtag=jobtag,
            rsl=ticket.rsl,
            duration=duration,
            parsed=ticket.description,
        )
        self._add(record)
        self._emit(record, "created", dn, self.clock, owner=dn, account=ticket.account,
                   priority=record.priority, rsl=ticket.rsl)
        return record

    # -- management authorization ----------------------------------------

    def authorize_management(self, record: JobRecord, requester: GridIdentity,
                             action: str, signal_kind: str | None = None) -> Decision:
        if action not in MANAGEMENT_ACTIONS:
            raise ValueError(f"not a management action: {action!r}")
        if self.config.self_management and requester == record.owner:
            if self.audit:
                self.audit(requester, action, record.job_id, SELF_RULE)
            return SELF_RULE
        args = CalloutArgs(
            requester=requester,
            action=action,
            description=record.description,
            initiator=record.owner,
            job_id=record.job_id,
            job_context=JobContext(
                job_id=record.job_id,
                jobowner=record.owner,
                jobtag=record.jobtag,
                signal_kind=signal_kind,
            ),
        )
        decision = self.callouts.invoke(GRAM_AUTHZ, args).decision
        if self.audit:
            self.audit(requester, action, record.job_id, decision)
        return decision

    # -- management operations -------------------------------------------

    def cancel(self, job_id: str, requester: GridIdentity) -> JobRecord:
        record = self._get(job_id)
        require_permit(self.authorize_management(record, requester, "cancel"))
        self._apply(record, "canceled", requester.render(), self.clock)
        return record

    def signal(self, job_id: str, requester: GridIdentity, kind: str,
               value: int | None = None) -> JobRecord:
        if kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {kind!r}")
        if kind == "priority" and value is None:
            raise ValueError("priority signal needs an integer argument")
        record = self._get(job_id)
        require_permit(self.authorize_management(record, requester, "signal", kind))
        actor = requester.render()
        if kind == "suspend":
            self._apply(record, "suspended", actor, self.clock)
        elif kind == "resume":
            if record.state is not JobState.SUSPENDED:
                raise InvalidTransition(job_id, record.state,
                                        "only a suspended job can be resumed")
            if self._active_count() >= self.config.slots:
                raise InvalidTransition(job_id, record.state, "no free slot for resume")
            self._apply(record, "resumed", actor, self.clock)
        else:
            self._apply(record, "priority-changed", actor, self.clock, value=value)
        return record

    def status(self, job_id: str, requester: GridIdentity) -> dict:
        record = self._get(job_id)
        require_permit(self.authorize_management(record, requester, "information"))
        return record.status_view()

    def list_jobs(self, jobtag: str | None = None, owner: GridIdentity | None = None,
                  state: JobState | None = None) -> list[dict]:
        views = []
        live = state is not None and state not in TERMINAL_STATES
        for record in (self._live if live else self.jobs).values():
            if jobtag is not None and record.jobtag != jobtag:
                continue
            if owner is not None and record.owner != owner:
                continue
            if state is not None and record.state is not state:
                continue
            views.append(record.status_view())
        return views

    # -- scheduler ---------------------------------------------------------

    def tick(self, now: int) -> list[tuple[str, str]]:
        if now < self.clock:
            raise ClockRegression(now, self.clock)
        changes = []
        for record in [r for r in self._live.values() if r.state is JobState.ACTIVE]:
            if record.active_since is None:
                continue
            total = record.active_time + (now - record.active_since)
            if total >= record.duration:
                finish = record.active_since + (record.duration - record.active_time)
                self._apply(record, "done", "scheduler", finish)
                changes.append((record.job_id, JobState.DONE.value))
        pending = sorted(
            (r for r in self._live.values() if r.state is JobState.PENDING),
            key=lambda r: (-r.priority, r.seq),
        )
        free = self.config.slots - self._active_count()
        for record in pending[: max(free, 0)]:
            self._apply(record, "dispatched", "scheduler", now)
            changes.append((record.job_id, JobState.ACTIVE.value))
        self.clock = now
        return changes

    def snapshot(self) -> str:
        """Deterministic text dump of the whole job table."""
        lines = []
        for r in self.jobs.values():
            lines.append(
                f"{r.job_id} state={r.state.value} owner=\"{r.owner.render()}\" "
                f"account={r.account} jobtag={r.jobtag or '-'} priority={r.priority} "
                f"duration={r.duration} started={_fmt(r.started_at)} "
                f"ended={_fmt(r.ended_at)} active_time={r.active_time}"
            )
            for h in r.history:
                lines.append(f"  {h.time} {h.event} {h.actor}")
        return "\n".join(lines) + "\n"


def _fmt(value):
    return "-" if value is None else str(value)
