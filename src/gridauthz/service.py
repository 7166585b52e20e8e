"""Service tying the pipeline together: line protocol, audit log, replay.

Protocol: one UTF-8 request line, one response line.

    SUBMIT dn="/O=Grid/.../CN=Bo Liu" rsl="&(executable=test1)..."
    CANCEL dn="..." job="job-1"
    SIGNAL dn="..." job="job-1" kind="suspend"
    SIGNAL dn="..." job="job-1" kind="priority" value="5"
    STATUS dn="..." job="job-1"
    LIST [jobtag="..."] [owner="..."] [state="..."]
    POLICY-EVAL dn="..." action="start" rsl="..."   (or job="job-1")
    TICK now="3"
    RELOAD

Responses are ``OK ...`` or ``E-<CLASS> <reason>`` where the class is
one of SYNTAX, GATE, DENY, ERROR, UNKNOWN-JOB, TRANSITION.
"""

from __future__ import annotations

import os
import re
import socketserver
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import gatekeeper
from .callout import (
    CalloutConfig,
    CalloutConfigError,
    Callouts,
    GRAM_AUTHZ,
    make_builtin_registry,
    parse_callout_config,
)
from .engine import (
    AuthorizationRequest,
    Decision,
    JobContext,
    MANAGEMENT_ACTIONS,
    authorize,
)
from .gatekeeper import (
    Gridmap,
    GridmapSyntaxError,
    NotAuthorized,
    PolicyDenied,
    PolicyFailure,
    parse_gridmap,
)
from .jobmanager import (
    ClockRegression,
    DuplicateTicket,
    InvalidTransition,
    JobManager,
    JobManagerConfig,
    JobManagerError,
    JobRecord,
    JobState,
    UnknownJob,
    _fmt,
    jobtag_and_duration,
)
from .policy import (
    GridIdentity,
    IdentitySyntaxError,
    PolicyDocument,
    PolicySyntaxError,
    parse_policy,
)
from .rsl import RslError, read_job_description


# the longest request line the TCP server reads, newline included
MAX_LINE = 64 * 1024


class ConfigError(ValueError):
    pass


class ProtocolError(ValueError):
    pass


class CorruptLog(ValueError):
    def __init__(self, sequence: int, detail: str):
        self.sequence = sequence
        super().__init__(f"corrupt log at sequence {sequence}: {detail}")


@dataclass
class ServiceConfig:
    local_policy_path: Path
    vo_policy_path: Path
    gridmap_path: Path
    callout_config_path: Path
    audit_log_path: Path
    event_log_path: Path
    slots: int = 1
    self_management: bool = True
    listen_endpoint: str = "127.0.0.1:7736"

    def __post_init__(self):
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")

    @property
    def checkpoint_path(self) -> Path:
        return Path(f"{self.event_log_path}.checkpoint")

    @classmethod
    def from_file(cls, path) -> "ServiceConfig":
        path = Path(path)
        base = path.parent
        values: dict[str, str] = {}
        try:
            text = path.read_text()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()

        def file_path(key):
            if key not in values:
                raise ConfigError(f"{path}: missing required key {key!r}")
            p = Path(values[key])
            return p if p.is_absolute() else base / p

        self_management = values.get("self_management", "on").lower()
        if self_management not in ("on", "off"):
            raise ConfigError(f"{path}: self_management must be 'on' or 'off'")
        endpoint = values.get("listen_endpoint", "127.0.0.1:7736")
        host, _, port = endpoint.rpartition(":")
        try:
            slots = _integer(values.get("slots", "1"), "slots")
            if not (host and 0 <= _integer(port, "listen_endpoint port") <= 65535):
                raise ProtocolError(f"listen_endpoint must be host:port with a port "
                                    f"in 0-65535, got {endpoint!r}")
        except ProtocolError as e:
            raise ConfigError(f"{path}: {e}") from e
        return cls(
            local_policy_path=file_path("local_policy_path"),
            vo_policy_path=file_path("vo_policy_path"),
            gridmap_path=file_path("gridmap_path"),
            callout_config_path=file_path("callout_config_path"),
            audit_log_path=file_path("audit_log_path"),
            event_log_path=file_path("event_log_path"),
            slots=slots,
            self_management=self_management == "on",
            listen_endpoint=endpoint,
        )


def _q(text: str) -> str:
    escaped = str(text).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


# One field of a request line or log record: key=bare or key="quoted",
# then a blank (" \t\r\n" only, as a POSIX shell splits) or the end.
# From the first character that does not fit, the rest of the line falls
# to the last group, so findall covers the whole line and skips nothing.
_BLANK = r"[ \t\r\n]"
_KEY = r"""[^ \t\r\n="'\\]+"""
_QUOTED = r'[^"\\]*(?:\\.[^"\\]*)*'  # between the quotes
_BARE = r"""[^ \t\r\n"'\\]*"""
_FIELD = re.compile(rf"""
    {_BLANK}*
    (?: ({_KEY}) = (?: "({_QUOTED})" | ({_BARE}) ) (?={_BLANK}|\Z)
      | ([^ \t\r\n].*) )
""", re.S | re.X)
_ESCAPE = re.compile(r'\\([\\"])')
_TOKEN = re.compile(r"[^ \t\r\n]*")


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(raw: str, what: str) -> int:
    """A protocol integer: ASCII digits after an optional '-', nothing else
    (``int()`` alone would also take blanks, '+', '_' and other digits)."""
    try:
        if _INTEGER.fullmatch(raw):
            return int(raw)
    except ValueError:  # more digits than int() converts
        pass
    raise ProtocolError(f"{what} must be an integer, got {raw!r}")


def _parse_kv_line(line: str) -> dict[str, str]:
    r"""Read the fields that ``_q`` and the log renderers write.

    Inside quotes only ``\\`` and ``\"`` are unescaped; any other backslash
    stays as it is.  Single quotes, a backslash outside quotes, a quoted
    value glued to more text, a field with no ``=`` and an unterminated
    quote raise ValueError.
    """
    fields = {}
    for key, quoted, bare, rest in _FIELD.findall(line):
        if rest:
            raise ValueError(f"malformed field {_TOKEN.match(rest)[0]!r}")
        fields[key] = _ESCAPE.sub(r"\1", quoted) if "\\" in quoted else quoted or bare
    return fields


@dataclass
class AuditRecord:
    sequence: int
    timestamp: int
    requester: str
    action: str
    job_id: str | None
    outcome: str
    reason: str
    ref: str | None
    source: str

    def render(self) -> str:
        return (
            f"seq={self.sequence} time={self.timestamp} requester={_q(self.requester)} "
            f"action={self.action} job={self.job_id or '-'} decision={self.outcome} "
            f"reason={_q(self.reason)} ref={_q(self.ref or '-')} source={self.source}"
        )


class _SequencedLog:
    """An append-only file of records numbered 1, 2, 3, ... without gaps."""

    def __init__(self, path: Path, sequence: int):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.sequence = sequence
        self._fh = open(self.path, "a", encoding="utf-8")

    def _write(self, line: str):
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def _cut_torn_tail(path: Path):
    """Cut what follows the last newline of a log that is about to be appended to.

    A record is written together with its newline before the request is
    answered, so bytes after the last newline are a record that was torn
    by a crash, of a request that never got its reply.
    """
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    with fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)


class AuditLog(_SequencedLog):
    def __init__(self, path: Path, start: tuple[int, int] = (0, 0)):
        """``start`` is the (sequence, byte offset) the count starts after."""
        _cut_torn_tail(path)
        # read as strictly as any log, then counted, not kept: nothing uses
        # an audit record at start
        super().__init__(path, start[0] + sum(1 for _ in _read_log(path, start)))

    def record(self, timestamp, requester, action, job_id, decision: Decision,
               ref, source) -> AuditRecord:
        self.sequence += 1
        rec = AuditRecord(
            sequence=self.sequence,
            timestamp=timestamp,
            requester=requester,
            action=action,
            job_id=job_id,
            outcome=decision.outcome.value,
            reason=decision.reason,
            ref=ref,
            source=source,
        )
        self._write(rec.render())
        return rec


class EventLog(_SequencedLog):
    """Job events; ``sequence`` is the number already in the file."""

    def record(self, job_id, event, actor, time, payload: dict):
        self.sequence += 1
        parts = [
            f"seq={self.sequence}",
            f"time={time}",
            f"job={job_id}",
            f"event={event}",
            f"actor={_q(actor)}",
        ]
        for key, value in payload.items():
            parts.append(f"{key}={_q('-' if value is None else value)}")
        self._write(" ".join(parts))


def _read_log(path, start=(0, 0)):
    """Parse a sequenced log strictly, one record (a dict of its fields) at
    a time; a missing file is an empty log.

    Every non-blank line must parse and carry the next sequence number,
    otherwise CorruptLog names the first sequence that is not there.
    Reading begins at the byte offset of ``start``, after the record with
    its sequence number.
    """
    path = Path(path)
    if not path.exists():
        return
    expected, offset = start[0] + 1, start[1]
    # records end at b"\n" only: a quoted value may hold "\r", "\x85" or
    # "\u2028", which universal newlines and str.splitlines() split on; a
    # record that is not UTF-8 is unreadable at its sequence
    with open(path, "rb") as fh:
        fh.seek(offset)
        for raw in fh:
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = _parse_kv_line(line)
                seq = _integer(record["seq"], "seq")
            except (ValueError, KeyError) as e:
                raise CorruptLog(expected, f"unreadable record: {e}") from e
            if seq != expected:
                raise CorruptLog(expected, f"sequence jumped to {seq}")
            expected += 1
            yield record


def read_audit_log(path) -> list[dict]:
    return list(_read_log(path))


def read_event_log(path, start=(0, 0)) -> Iterator[dict]:
    """The records of an event log one at a time, read as strictly as
    ``_read_log`` reads them, with ``time`` an integer."""
    for ev in _read_log(path, start=start):
        try:
            ev["time"] = _integer(ev["time"], "time")
        except (ValueError, KeyError) as e:
            raise CorruptLog(int(ev["seq"]), f"unreadable event: {e}") from e
        yield ev


_EVENT_HEADER = ("seq", "time", "job", "event", "actor")


def replay_events(events: Iterable[dict], jm: JobManager) -> JobManager:
    """Rebuild the job table of ``jm`` from an event stream.

    Every event after ``created`` goes through ``JobManager._apply``, the
    transitions live calls make, with ``on_event`` off so nothing is logged
    twice.  An event the live state machine could not have written raises
    CorruptLog.  A restored job holds its logged RSL text (``JobRecord.rsl``)
    and takes its jobtag and duration from that text, as a live SUBMIT took
    them from its reading of the same text; the ``jobtag`` and ``duration``
    fields an older log holds are not read.
    """
    # each RSL text that passed, and the (jobtag, duration) it gives: both
    # depend on the text alone, so each distinct text is parsed once
    checked: dict[str, tuple[str | None, int]] = {}
    on_event, jm.on_event = jm.on_event, None
    try:
        for ev in events:
            try:
                job_id, kind, time, actor = ev["job"], ev["event"], ev["time"], ev["actor"]
                if kind == "created":
                    rsl = ev["rsl"]
                    # what a live SUBMIT could not have logged raises here
                    terms = checked.get(rsl)
                    if terms is None:
                        terms = checked[rsl] = jobtag_and_duration(read_job_description(rsl))
                    jobtag, duration = terms
                    record = JobRecord(
                        job_id=job_id,
                        owner=jm._owner(ev["owner"]),
                        account=ev["account"],
                        jobtag=jobtag,
                        rsl=rsl,
                        priority=_integer(ev["priority"], "priority"),
                        duration=duration,
                    )
                    jm._add(record)
                    jm._emit(record, kind, actor, time)
                else:
                    payload = {k: v for k, v in ev.items() if k not in _EVENT_HEADER}
                    if kind == "priority-changed":
                        payload["value"] = _integer(payload["value"], "priority value")
                    jm._apply(jm._get(job_id), kind, actor, time, **payload)
                jm.clock = max(jm.clock, time)
            except (JobManagerError, ValueError, KeyError, IndexError) as e:
                raise CorruptLog(int(ev["seq"]), str(e)) from e
    finally:
        jm.on_event = on_event
    return jm


class Service:
    """In-process service; the TCP server and CLI funnel into handle_request."""

    def __init__(self, config: ServiceConfig, registry=None):
        self.config = config
        self._lock = threading.RLock()
        self._policies: tuple[PolicyDocument, PolicyDocument] = load_policies(config)
        self.gridmap: Gridmap = self._load_gridmap()
        self.callout_config: CalloutConfig = self._load_callout_config()
        self.callout_config.require(GRAM_AUTHZ)
        if registry is None:
            registry = make_builtin_registry(lambda: self._policies)
        self.callouts = Callouts(self.callout_config, registry)
        # what a start met and went on past, such as a stale checkpoint
        self.warnings: list[str] = []
        # set when a log record could not be written: the table may then
        # hold what the logs do not, and no checkpoint is taken of it
        self._unlogged = False
        _cut_torn_tail(config.event_log_path)
        self.jobmanager, self._covered = self._restore_checkpoint()
        # (sequence, byte offset) of each log up to which the table is restored
        audit, events = ([(c.sequence, c.offset) for c in self._covered] if self._covered
                         else [(0, 0), (0, 0)])
        self.audit_log = AuditLog(config.audit_log_path, audit)
        replayed = events[0]

        def counted(records):
            nonlocal replayed
            for replayed, ev in enumerate(records, replayed + 1):
                yield ev

        # streamed: no more than one event record is held at a time
        try:
            replay_events(counted(read_event_log(config.event_log_path, events)),
                          self.jobmanager)
        except BaseException:
            self.audit_log.close()  # the caller gets no Service to close it
            raise
        self.event_log = EventLog(config.event_log_path, replayed)

    # -- loading ---------------------------------------------------------

    def _new_jobmanager(self) -> JobManager:
        return JobManager(
            self.callouts,
            JobManagerConfig(slots=self.config.slots,
                             self_management=self.config.self_management),
            audit=self._audit,
            on_event=self._on_event,
        )

    def _restore_checkpoint(self):
        """The job table of the checkpoint and how much of each log it
        covers; an empty table and None if there is no checkpoint or it is
        stale.  A start raises nothing because of a checkpoint."""
        path = self.config.checkpoint_path
        tmp = path.with_name(path.name + ".tmp")
        jm = self._new_jobmanager()
        if not (path.exists() or tmp.exists()):
            return jm, None
        # imported where used: a start with no checkpoint does without it
        from .checkpoint import load_checkpoint

        try:
            if tmp.exists():
                tmp.unlink()
                self.warnings.append(f"removed {tmp}, left by a checkpoint write that "
                                     "did not finish")
            if path.exists():
                return jm, load_checkpoint(path, self.config.audit_log_path,
                                            self.config.event_log_path, jm)
        except Exception as e:
            self.warnings.append(f"stale checkpoint {path} ignored "
                                 f"({type(e).__name__}: {e}); replaying the whole logs")
            jm = self._new_jobmanager()
        return jm, None

    def checkpoint(self):
        """Write the checkpoint of the job table as it stands, covering
        every record in both logs; ``close`` calls it."""
        from .checkpoint import Covered, write_checkpoint

        with self._lock:
            audit, events = self._covered or (Covered.nothing(), Covered.nothing())
            covered = (
                audit.extended(self.config.audit_log_path, self.audit_log.sequence),
                events.extended(self.config.event_log_path, self.event_log.sequence))
            write_checkpoint(self.config.checkpoint_path, self.jobmanager, *covered)
            self._covered = covered

    def _load_gridmap(self):
        return parse_gridmap(_read(self.config.gridmap_path))

    def _load_callout_config(self):
        return parse_callout_config(_read(self.config.callout_config_path))

    @property
    def policies(self):
        return self._policies

    def reload(self):
        """Atomically swap policies and gridmap; in-flight requests see one set."""
        local_vo = load_policies(self.config)
        gridmap = self._load_gridmap()
        with self._lock:
            self._policies = local_vo
            self.gridmap = gridmap

    # -- audit / event plumbing -------------------------------------------

    def _audit(self, requester, action, job_id, decision: Decision):
        try:
            self.audit_log.record(self.jobmanager.clock, requester.render(), action, job_id,
                                  decision, decision.ref, decision.source)
        except BaseException:
            self._unlogged = True
            raise

    def _on_event(self, record: JobRecord, event, actor, time, payload):
        try:
            self.event_log.record(record.job_id, event, actor, time, payload)
        except BaseException:
            self._unlogged = True
            raise

    # -- protocol ----------------------------------------------------------

    def handle_request(self, line: str) -> str:
        with self._lock:
            try:
                return self._dispatch(line.strip())
            except ProtocolError as e:
                return f"E-SYNTAX {e}"
            except (RslError, IdentitySyntaxError) as e:
                return f"E-SYNTAX {e}"
            except NotAuthorized as e:
                return f"E-GATE {e}"
            except PolicyDenied as e:
                return f"E-DENY {e.reason}"
            except PolicyFailure as e:
                return f"E-ERROR {e.detail}"
            except DuplicateTicket as e:
                return f"E-ERROR {e}"
            except UnknownJob as e:
                return f"E-UNKNOWN-JOB {e}"
            except (InvalidTransition, ClockRegression) as e:
                return f"E-TRANSITION {e}"
            except (PolicySyntaxError, GridmapSyntaxError,
                    CalloutConfigError, ConfigError) as e:
                return f"E-ERROR {e}"
            except Exception as e:  # one reply line, and the service goes on
                import traceback  # here: the module costs memory, and this is rare

                traceback.print_exc()
                return f"E-ERROR internal error: {type(e).__name__}"

    def _dispatch(self, line: str) -> str:
        if not line:
            raise ProtocolError("empty request")
        if "\n" in line:  # TCP splits there; in process it would split a record
            raise ProtocolError("newline inside a request line")
        verb, _, rest = line.partition(" ")
        try:
            fields = _parse_kv_line(rest)
        except ValueError as e:
            raise ProtocolError(str(e)) from e
        handler = getattr(self, "_cmd_" + verb.lower().replace("-", "_"), None)
        if handler is None:
            raise ProtocolError(f"unknown verb {verb!r}")
        return handler(fields)

    def _need(self, fields, *keys):
        for key in keys:
            if key not in fields:
                raise ProtocolError(f"missing field {key!r}")
        return [fields[k] for k in keys]

    def _cmd_submit(self, fields):
        dn, rsl_text = self._need(fields, "dn", "rsl")
        requester = GridIdentity.parse(dn)
        ticket = gatekeeper.admit(
            self.gridmap, self.callouts, requester, rsl_text, audit=self._audit)
        record = self.jobmanager.submit(ticket)
        return f"OK {record.job_id} {record.state.value}"

    def _cmd_cancel(self, fields):
        dn, job_id = self._need(fields, "dn", "job")
        record = self.jobmanager.cancel(job_id, GridIdentity.parse(dn))
        return f"OK {record.job_id} {record.state.value}"

    def _cmd_signal(self, fields):
        dn, job_id, kind = self._need(fields, "dn", "job", "kind")
        value = None
        if kind == "priority":
            value = _integer(*self._need(fields, "value"), "priority value")
        elif kind not in ("suspend", "resume"):
            raise ProtocolError(f"unknown signal kind {kind!r}")
        record = self.jobmanager.signal(job_id, GridIdentity.parse(dn), kind, value)
        if kind == "priority":
            return f"OK {record.job_id} PRIORITY {record.priority}"
        return f"OK {record.job_id} {record.state.value}"

    def _cmd_status(self, fields):
        dn, job_id = self._need(fields, "dn", "job")
        view = self.jobmanager.status(job_id, GridIdentity.parse(dn))
        return (
            f"OK {view['job_id']} {view['state']} owner={_q(view['owner'])} "
            f"jobtag={view['jobtag'] or '-'} priority={view['priority']} "
            f"started={_fmt(view['started_at'])} ended={_fmt(view['ended_at'])} "
            f"history={view['history_length']}"
        )

    def _cmd_list(self, fields):
        jobtag = fields.get("jobtag")
        owner = GridIdentity.parse(fields["owner"]) if "owner" in fields else None
        state = None
        if "state" in fields:
            try:
                state = JobState(fields["state"])
            except ValueError:
                raise ProtocolError(f"unknown state {fields['state']!r}")
        views = self.jobmanager.list_jobs(jobtag=jobtag, owner=owner, state=state)
        body = " ".join(f"{v['job_id']}:{v['state']}" for v in views)
        return f"OK {body}".rstrip()

    def _cmd_policy_eval(self, fields):
        dn, action = self._need(fields, "dn", "action")
        requester = GridIdentity.parse(dn)
        if action == "start":
            (rsl_text,) = self._need(fields, "rsl")
            req = AuthorizationRequest(requester, "start", read_job_description(rsl_text))
        elif action in MANAGEMENT_ACTIONS:
            (job_id,) = self._need(fields, "job")
            record = self.jobmanager.jobs.get(job_id)
            if record is None:
                raise UnknownJob(job_id)
            req = AuthorizationRequest(
                requester, action, record.description,
                JobContext(job_id, record.owner, record.jobtag,
                           fields.get("signal")))
        else:
            raise ProtocolError(f"unknown action {action!r}")
        return "OK " + explain(*authorize(*self._policies, req))

    def _cmd_tick(self, fields):
        now = _integer(*self._need(fields, "now"), "tick time")
        changes = self.jobmanager.tick(now)
        body = " ".join(f"{job_id}:{state}" for job_id, state in changes)
        return f"OK time={now} {body}".rstrip()

    def _cmd_reload(self, fields):
        self.reload()
        return "OK reloaded"

    def close(self):
        """Close both logs.  If they hold records that the checkpoint the
        service started from does not cover, write a new checkpoint first,
        so that the next start replays only what is logged after this."""
        with self._lock:
            covered = tuple(c.sequence for c in self._covered) if self._covered else (0, 0)
            if (self.audit_log.sequence, self.event_log.sequence) == covered:
                pass
            elif self._unlogged:
                self.warnings.append("checkpoint not written: a log record could not be written")
            else:
                try:
                    self.checkpoint()
                except OSError as e:
                    self.warnings.append(f"checkpoint not written: {e}")
            self.audit_log.close()
            self.event_log.close()

    # -- TCP server ---------------------------------------------------------

    def serve_forever(self):
        host, port = self.config.listen_endpoint.rsplit(":", 1)
        service = self

        class Handler(socketserver.StreamRequestHandler):
            # TCP_NODELAY: a reply is one short write, which Nagle's algorithm
            # would hold back until the client acknowledges the previous one
            disable_nagle_algorithm = True

            def handle(self):
                while True:
                    raw = self.rfile.readline(MAX_LINE)
                    if not raw:
                        break
                    if len(raw) == MAX_LINE and not raw.endswith(b"\n"):
                        # too long: one reply, and read on from the next line
                        while raw and not raw.endswith(b"\n"):
                            raw = self.rfile.readline(MAX_LINE)
                        response = f"E-SYNTAX request line longer than {MAX_LINE} bytes"
                    else:
                        try:
                            response = service.handle_request(raw.decode("utf-8"))
                        except UnicodeDecodeError as e:
                            response = f"E-SYNTAX request is not UTF-8: {e.reason}"
                    self.wfile.write((response + "\n").encode("utf-8"))

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        with Server((host, int(port)), Handler) as server:
            self._server = server
            server.serve_forever()

    def shutdown(self):
        server = getattr(self, "_server", None)
        if server is not None:
            server.shutdown()


def explain(decision: Decision, facts) -> str:
    """An ``authorize`` result as one line: the combined decision and what
    each document made of the request.  The body of a POLICY-EVAL response
    and the output of ``policy eval --explain``."""
    local_fact, vo_fact = facts
    return (
        f"{decision.outcome.value} reason={_q(decision.reason)} "
        f"local={_q(_explain_summary(local_fact))} "
        f"vo={_q(_explain_summary(vo_fact))}"
    )


def _explain_summary(fact) -> str:
    """One document's part of the line: the grant that satisfied it, the
    requirement that failed or else the first failing grant, each with the
    assertion it failed at; or that no statement applied."""
    if fact is None:
        return "no applicable statements"
    what, ref, failing = fact
    return f"{what} {ref}" if failing is None else f"{what} {ref} failed at {failing.render()}"


def load_policies(config: ServiceConfig) -> tuple[PolicyDocument, PolicyDocument]:
    """The local and VO policy documents ``config`` names.  Raises
    ConfigError for a file that cannot be read, PolicySyntaxError for one
    that does not parse."""
    return (parse_policy(_read(config.local_policy_path), "LOCAL", str(config.local_policy_path)),
            parse_policy(_read(config.vo_policy_path), "VO", str(config.vo_policy_path)))


def _read(path: Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def send_request(endpoint: str, line: str, timeout: float = 10.0) -> str:
    """One-shot protocol client used by the CLI subcommands."""
    import socket

    host, port = endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall((line + "\n").encode("utf-8"))
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    return data.decode("utf-8").strip()
