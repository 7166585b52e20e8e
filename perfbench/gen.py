"""Seeded input generators for the gridauthz benchmark.

Everything the program under test receives is made here from a seed:
policy documents, gridmaps, restart logs and request lines.  Each request
line carries the response classes it may get (``OK``, ``E-DENY`` ...) and
the number of audit records it should append, so the harness can check
every response without consulting the program.

Log files are written in the on-disk record format the service reads,
not through the service's writer classes, so a later change to those
classes cannot change the inputs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from pathlib import Path

BO = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu"
KATE = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=KateKeahey"
FIXTURE_ACCOUNTS = {BO: "bliu", KATE: "kkeahey"}

# a job's start grants under fixtures/reference*.policy, as (owner,
# executable, jobtag, statement index in the document)
FIXTURE_JOB_KINDS = (
    (BO, "test1", "ADS", 1),
    (BO, "test2", "NFC", 2),
    (KATE, "TRANSP", "NFC", 3),
)

# request kinds; latencies are reported per kind
SUBMIT, MANAGE, TICK, QUERY, BAD = "submit", "manage", "tick", "query", "bad"

# large-vo: the order of 10^3 members, ~20 sites, ~90% of them mapped.
# 500 members (not 1000) keep a request near 7 ms, so a closed-loop run
# of the benchmark's length has over 1000 samples of each kind with a p99.
VO_USERS = 500
VO_SITES = 20
VO_MAPPED_SHARE = 0.9
# job-churn: the slot count of both the live service and the restart log
CHURN_SLOTS = 8
# wire: reads only name jobs whose SUBMIT was due this long before, so the
# job id a read names exists whatever the queueing delay
WIRE_READ_LAG_S = 1.0


@dataclass(frozen=True)
class Request:
    line: str
    kind: str
    expect: tuple[str, ...]  # response classes accepted for this line
    audits: int  # audit records the request appends
    conn: int = 0  # connection the wire workload sends it on
    due: float = 0.0  # seconds after the start of an open-loop run


def q(text) -> str:
    """Quote a protocol field value."""
    escaped = str(text).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def submit_line(dn: str, rsl: str) -> str:
    return f"SUBMIT dn={q(dn)} rsl={q(rsl)}"


def stream_rng(seed: int) -> random.Random:
    """The random source of a request stream, apart from the one that
    made the service's files, so a stream can be generated again."""
    return random.Random(f"stream-{seed}")


def job_rsl(executable, directory, jobtag, count, maxtime) -> str:
    """RSL in the canonical order the job manager renders it back in."""
    parts = [f"(executable={executable})", f"(directory={directory})"]
    if jobtag is not None:
        parts.append(f"(jobtag={jobtag})")
    parts.append(f"(maxtime={maxtime})")
    parts.append(f"(count={count})")
    return "&" + "".join(parts)


def write_service_files(root: Path, local: str, vo: str, gridmap: str, slots: int,
                        listen: str = "127.0.0.1:0") -> Path:
    """Write policies, gridmap, callout binding and service.conf; return the conf."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "local.policy").write_text(local)
    (root / "vo.policy").write_text(vo)
    (root / "gridmap").write_text(gridmap)
    (root / "callout.conf").write_text("gram-authz rsl-pep\n")
    conf = root / "service.conf"
    conf.write_text(
        "local_policy_path = local.policy\n"
        "vo_policy_path = vo.policy\n"
        "gridmap_path = gridmap\n"
        "callout_config_path = callout.conf\n"
        "audit_log_path = audit.log\n"
        "event_log_path = events.log\n"
        f"slots = {slots}\n"
        "self_management = on\n"
        f"listen_endpoint = {listen}\n"
    )
    return conf


def fixture_gridmap() -> str:
    return "".join(f'"{dn}" {acct}\n' for dn, acct in FIXTURE_ACCOUNTS.items())


# -- large-vo ------------------------------------------------------------


class LargeVO:
    """A synthetic VO: ``VO_USERS`` members spread over ``VO_SITES`` OUs.

    LOCAL: per site, a requirement block (a start needs a jobtag) and a
    grant letting site members query each other's jobs; per user, one
    start grant for executables sim-<u> and ana-<u>.
    VO: per site, cancel/information/signal grants on the site's jobtag;
    per user, one start grant for executables sim-<u> and viz-<u>.
    So sim-<u> is permitted, ana-<u> is denied by the VO and viz-<u> (or
    a missing jobtag, or count >= 4) by the local policy.
    """

    def __init__(self, rng: random.Random):
        self.sites = VO_SITES
        self.users = [(u, u % VO_SITES) for u in range(VO_USERS)]
        self.mapped = {u for u in range(VO_USERS) if rng.random() < VO_MAPPED_SHARE}

    @staticmethod
    def site_dn(s: int) -> str:
        return f"/O=Grid/O=BenchVO/OU=site-{s:02d}"

    def dn(self, u: int) -> str:
        return f"{self.site_dn(u % self.sites)}/CN=user-{u:04d}"

    def local_policy(self) -> str:
        out = []
        for s in range(self.sites):
            site = self.site_dn(s)
            out += [f"&{site}:", "(action = start)(jobtag != NULL)", "",
                    f"{site}:", f"&(action = information)(jobtag = site-{s:02d})", ""]
            for u, us in self.users:
                if us == s:
                    out += [f"{self.dn(u)}:",
                            f"&(action = start)(executable = sim-{u})(executable = ana-{u})"
                            f"(directory = /scratch/site-{s:02d})(jobtag = site-{s:02d})(count < 4)",
                            ""]
        return "\n".join(out)

    def vo_policy(self) -> str:
        out = []
        for s in range(self.sites):
            site, tag = self.site_dn(s), f"site-{s:02d}"
            out += [f"{site}:"]
            out += [f"&(action = {a})(jobtag = {tag})" for a in ("cancel", "information", "signal")]
            out.append("")
            for u, us in self.users:
                if us == s:
                    out += [f"{self.dn(u)}:",
                            f"&(action = start)(executable = sim-{u})(executable = viz-{u})"
                            f"(jobtag = {tag})",
                            ""]
        return "\n".join(out)

    def gridmap(self) -> str:
        return "".join(f'"{self.dn(u)}" acct{u:04d}\n' for u, _ in self.users if u in self.mapped)

    def stream(self, rng: random.Random):
        """Endless closed-loop mix: ~42% SUBMIT, ~28% third-party
        management, ~5% POLICY-EVAL, ~25% TICK.  TICK is cheap here; its
        share is above the ~10% of the workload's definition so that
        ``tick_p99_us`` rests on over 1000 samples."""
        jobs: list[tuple[str, int]] = []  # (job id, owner) of admitted jobs
        now = 0
        users = len(self.users)
        while True:
            r = rng.random()
            if r < 0.42 or not jobs:
                u = rng.randrange(users)
                s = u % self.sites
                rsl, permitted = self._start_rsl(rng, u, s)
                if u not in self.mapped:
                    yield Request(submit_line(self.dn(u), rsl), SUBMIT, ("E-GATE",), 1)
                elif permitted:
                    jobs.append((f"job-{len(jobs) + 1}", u))
                    yield Request(submit_line(self.dn(u), rsl), SUBMIT, ("OK",), 2)
                else:
                    yield Request(submit_line(self.dn(u), rsl), SUBMIT, ("E-DENY",), 2)
            elif r < 0.70:
                job, owner = jobs[rng.randrange(len(jobs))]
                site = owner % self.sites
                if rng.random() < 0.5:  # a member of the owner's site
                    other = rng.randrange(users // self.sites) * self.sites + site
                else:
                    other = rng.randrange(users)
                if other == owner:
                    other = (owner + self.sites) % users
                dn = self.dn(other)
                v = rng.random()
                if v < 0.5:
                    same = other % self.sites == site
                    line = f"STATUS dn={q(dn)} job={q(job)}"
                    yield Request(line, MANAGE, ("OK",) if same else ("E-DENY",), 1)
                elif v < 0.75:
                    line = f"CANCEL dn={q(dn)} job={q(job)}"
                    yield Request(line, MANAGE, ("E-DENY",), 1)
                else:
                    line = f"SIGNAL dn={q(dn)} job={q(job)} kind=\"priority\" value=\"{rng.randrange(10)}\""
                    yield Request(line, MANAGE, ("E-DENY",), 1)
            elif r < 0.75:
                u = rng.randrange(users)
                rsl, _ = self._start_rsl(rng, u, u % self.sites)
                line = f"POLICY-EVAL dn={q(self.dn(u))} action=\"start\" rsl={q(rsl)}"
                yield Request(line, QUERY, ("OK",), 0)
            else:
                now += 1
                yield Request(f"TICK now=\"{now}\"", TICK, ("OK",), 0)

    def _start_rsl(self, rng, u, s):
        """A start request for user u and whether both documents permit it."""
        tag, directory = f"site-{s:02d}", f"/scratch/site-{s:02d}"
        count, maxtime = rng.randint(1, 3), rng.randint(1, 3)
        v = rng.random()
        if v < 0.55:
            return job_rsl(f"sim-{u}", directory, tag, count, maxtime), True
        if v < 0.75:  # denied by the VO document
            return job_rsl(f"ana-{u}", directory, tag, count, maxtime), False
        if v < 0.85:  # the local start grant does not cover viz-<u>
            return job_rsl(f"viz-{u}", directory, tag, count, maxtime), False
        if v < 0.93:  # the local site requirement wants a jobtag
            return job_rsl(f"sim-{u}", directory, None, count, maxtime), False
        return job_rsl(f"sim-{u}", directory, tag, rng.randint(4, 9), maxtime), False


# -- job-churn -----------------------------------------------------------


def fixture_start(rng: random.Random):
    """(owner, rsl, jobtag, grant index) of a start permitted by the fixtures."""
    owner, exe, tag, idx = FIXTURE_JOB_KINDS[rng.randrange(len(FIXTURE_JOB_KINDS))]
    rsl = job_rsl(exe, "/sandbox/test", tag, rng.randint(1, 3), rng.randint(1, 4))
    return owner, rsl, tag, idx


def write_restart_log(rng: random.Random, audit_path: Path, event_path: Path,
                      jobs: int) -> tuple[int, "Fleet"]:
    """Write the audit and event logs of ``jobs`` finished jobs.

    A small scheduler simulation: two submissions per time unit, FIFO
    dispatch into ``CHURN_SLOTS`` slots, about 10% cancelled by their owner.
    Returns the clock after the last event and the jobs written.
    """
    fleet = Fleet(1)
    events: list[str] = []
    audits: list[str] = []

    def event(time, job, kind, actor, payload=""):
        events.append(f"seq={len(events) + 1} time={time} job={job} event={kind} "
                      f"actor={q(actor)}{payload}")

    def audit(time, dn, action, job, ref, source):
        audits.append(f"seq={len(audits) + 1} time={time} requester={q(dn)} "
                      f"action={action} job={job} decision=PERMIT reason=\"\" "
                      f"ref={q(ref)} source={source}")

    pending: list[tuple[str, str, int]] = []  # (job, owner, duration)
    active: dict[str, tuple[str, int]] = {}  # job -> (owner, end time)
    created = 0
    now = 0
    while created < jobs or pending or active:
        for job, (owner, end) in sorted(active.items(), key=lambda kv: int(kv[0][4:])):
            if end <= now:
                event(end, job, "done", "scheduler")
                del active[job]
        while pending and len(active) < CHURN_SLOTS:
            job, owner, duration = pending.pop(0)
            event(now, job, "dispatched", "scheduler")
            active[job] = (owner, now + duration)
        for _ in range(2):
            if created >= jobs:
                break
            created += 1
            owner, rsl, tag, idx = fixture_start(rng)
            job = fleet.add(owner, tag)
            duration = int(rsl.split("(maxtime=")[1].split(")")[0])
            audit(now, owner, "start", "-", FIXTURE_ACCOUNTS[owner], "GATE")
            audit(now, owner, "start", "-", f"LOCAL#{idx}@L0+VO#{idx}@L0", "LOCAL-PEP")
            event(now, job, "created", owner,
                  f" owner={q(owner)} account={q(FIXTURE_ACCOUNTS[owner])} jobtag={q(tag)}"
                  f" priority=\"0\" duration=\"{duration}\" rsl={q(rsl)}")
            if rng.random() < 0.1:
                audit(now, owner, "cancel", job, "-", "SELF-RULE")
                event(now, job, "canceled", owner)
            else:
                pending.append((job, owner, duration))
        now += 1
    audit_path.write_text("\n".join(audits) + "\n")
    event_path.write_text("\n".join(events) + "\n")
    return now, fleet


class Fleet:
    """Jobs admitted so far in a stream, for picking management targets."""

    def __init__(self, first_id: int):
        self.next_id = first_id
        self.jobs: list[tuple[str, str, str]] = []  # (job, owner, jobtag)

    def add(self, owner: str, tag: str) -> str:
        job = f"job-{self.next_id}"
        self.next_id += 1
        self.jobs.append((job, owner, tag))
        return job

    def pick(self, rng: random.Random, recent: int, limit: int | None = None):
        jobs = self.jobs if limit is None else self.jobs[:limit]
        return jobs[-1 - min(int(rng.expovariate(1 / recent)), len(jobs) - 1)]


def third_party(owner: str, tag: str, action: str, extended: bool) -> tuple[str, tuple]:
    """Requester and accepted classes of a non-owner management call.

    Kate holds NFC management grants (cancel only under the reference
    policy; cancel, signal and information under the extended one); Bo
    holds none.
    """
    if owner == BO:
        granted = tag == "NFC" and (action == "cancel" or extended)
        if not granted:
            return KATE, ("E-DENY",)
        return KATE, ("OK", "E-TRANSITION") if action != "information" else ("OK",)
    return BO, ("E-DENY",)


def churn_stream(rng: random.Random, clock: int, old: "Fleet"):
    """Endless closed-loop mix after a restart: ~43% owner SUBMIT, ~28%
    TICK, ~25% management (owner CANCEL, third-party SIGNAL priority and
    STATUS), ~4% ``LIST state="ACTIVE"``.  Management is above the ~20%
    of the workload's definition so that ``manage_p99_us`` rests on over
    1000 samples; the LIST share gives ``query_p50_us`` a few hundred."""
    fleet = Fleet(old.next_id)
    now = clock
    while True:
        r = rng.random()
        if r < 0.43 or not fleet.jobs:
            owner, rsl, tag, _ = fixture_start(rng)
            if rng.random() < 0.03:  # a directory no grant names
                rsl = rsl.replace("/sandbox/test", "/tmp", 1)
                yield Request(submit_line(owner, rsl), SUBMIT, ("E-DENY",), 2)
            else:
                fleet.add(owner, tag)
                yield Request(submit_line(owner, rsl), SUBMIT, ("OK",), 2)
        elif r < 0.71:
            now += 1
            yield Request(f"TICK now=\"{now}\"", TICK, ("OK",), 0)
        elif r < 0.96:
            job, owner, tag = fleet.pick(rng, 20)
            v = rng.random()
            if v < 0.34:
                expect = ("OK", "E-TRANSITION")
                if rng.random() < 0.1:  # a job from before the restart, finished
                    job, owner, tag = old.pick(rng, 1000)
                    expect = ("E-TRANSITION",)
                yield Request(f"CANCEL dn={q(owner)} job={q(job)}", MANAGE, expect, 1)
            elif v < 0.67:
                dn, expect = third_party(owner, tag, "signal", True)
                line = (f"SIGNAL dn={q(dn)} job={q(job)} kind=\"priority\" "
                        f"value=\"{rng.randrange(10)}\"")
                yield Request(line, MANAGE, expect, 1)
            else:
                dn, expect = third_party(owner, tag, "information", True)
                yield Request(f"STATUS dn={q(dn)} job={q(job)}", MANAGE, expect, 1)
        else:
            yield Request("LIST state=\"ACTIVE\"", QUERY, ("OK",), 0)


# -- wire ----------------------------------------------------------------

# lines that must get E-SYNTAX and append no audit record
MALFORMED = (
    'SUBMIT dn="{bo}" rsl="&(executable=test1"',  # unterminated RSL
    'SUBMIT dn="{bo}" rsl="&(executable=test1)',  # unterminated quote
    'FROB job="job-1"',  # unknown verb
    'TICK now="soon"',  # non-integer time
    'STATUS dn="{bo}"',  # missing field
    'SIGNAL dn="{bo}" job="job-1" kind="stop"',  # unknown signal kind
)


def wire_stream(rng: random.Random, rate: float, seconds: float) -> list[Request]:
    """Open-loop schedule over two connections: Poisson arrivals at a
    fixed mean rate, for ``seconds``.

    Connection 0 carries the writes (SUBMIT, TICK, owner CANCEL/SIGNAL),
    connection 1 the reads (owner and third-party STATUS, third-party
    SIGNAL, LIST); ~2% of lines on each are malformed.  Job ids stay
    predictable because every SUBMIT goes over connection 0, and reads
    only name jobs whose SUBMIT was due at least ``WIRE_READ_LAG_S``
    earlier.  Gaps between arrivals are exponential: with evenly spaced
    arrivals every queueing delay is a whole number of gaps, and a
    percentile jumps from one such step to the next between runs.
    """
    fleet = Fleet(1)
    created_at: list[float] = []
    reqs: list[Request] = []
    now = 0
    arrivals = random.Random(rng.random())
    due = arrivals.expovariate(rate)
    while due < seconds:
        r = rng.random()
        visible = bisect.bisect_right(created_at, due - WIRE_READ_LAG_S)
        if r < 0.01 or 0.99 <= r:
            line = MALFORMED[rng.randrange(len(MALFORMED))].format(bo=BO)
            reqs.append(Request(line, BAD, ("E-SYNTAX",), 0, 0 if r < 0.5 else 1, due))
        elif r < 0.41 or not visible:
            w = rng.random()
            if w < 0.43 or not fleet.jobs:
                owner, rsl, tag, _ = fixture_start(rng)
                if rng.random() < 0.33:  # a directory no grant names
                    rsl = rsl.replace("/sandbox/test", "/tmp", 1)
                    reqs.append(Request(submit_line(owner, rsl), SUBMIT, ("E-DENY",), 2, 0, due))
                else:
                    fleet.add(owner, tag)
                    created_at.append(due)
                    reqs.append(Request(submit_line(owner, rsl), SUBMIT, ("OK",), 2, 0, due))
            elif w < 0.90:
                now += 1
                reqs.append(Request(f"TICK now=\"{now}\"", TICK, ("OK",), 0, 0, due))
            elif w < 0.95:
                job, owner, _ = fleet.pick(rng, 30)
                line = f"CANCEL dn={q(owner)} job={q(job)}"
                reqs.append(Request(line, MANAGE, ("OK", "E-TRANSITION"), 1, 0, due))
            else:
                job, owner, _ = fleet.pick(rng, 30)
                kind = ("suspend", "resume", "priority")[rng.randrange(3)]
                line = f"SIGNAL dn={q(owner)} job={q(job)} kind={q(kind)}"
                if kind == "priority":
                    line += f" value=\"{rng.randrange(10)}\""
                reqs.append(Request(line, MANAGE, ("OK", "E-TRANSITION"), 1, 0, due))
        else:
            w = rng.random()
            job, owner, tag = fleet.pick(rng, 30, visible)
            if w < 0.45:
                reqs.append(Request(f"STATUS dn={q(owner)} job={q(job)}", MANAGE, ("OK",), 1, 1, due))
            elif w < 0.65:
                dn, expect = third_party(owner, tag, "information", False)
                reqs.append(Request(f"STATUS dn={q(dn)} job={q(job)}", MANAGE, expect, 1, 1, due))
            elif w < 0.82:
                dn, expect = third_party(owner, tag, "signal", False)
                line = (f"SIGNAL dn={q(dn)} job={q(job)} kind=\"priority\" "
                        f"value=\"{rng.randrange(10)}\"")
                reqs.append(Request(line, MANAGE, expect, 1, 1, due))
            else:
                line = "LIST state=\"ACTIVE\"" if rng.random() < 0.5 else f"LIST owner={q(owner)} state=\"PENDING\""
                reqs.append(Request(line, QUERY, ("OK",), 0, 1, due))
        due += arrivals.expovariate(rate)
    return reqs
