"""The checkpoint file: the job table as of a point in both logs, so that a
start replays only the records after it.

``<event_log_path>.checkpoint`` is a header line, then one JSON row per job
(``row``) in id order.  For each log the header holds the sequence and byte
offset the rows cover and the SHA-256 of the bytes before that offset; its
digest covers its other fields and every row.  A start loads a checkpoint
only if all of that holds, then replays just the records after the
offsets.  Any other checkpoint is stale: the logs are the record of truth,
so the start replays them whole and says so.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from sys import intern

from .jobmanager import TERMINAL_STATES, HistoryEvent, JobManager, JobRecord, JobState

# CPython's own SHA-256 (``_sha256`` to 3.11, ``_sha2`` from 3.12): hashlib
# would map OpenSSL, 3.5 MB more resident, though it hashes about 5x faster
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

# a row's jobtag is the one its RSL gives; a version 1 row held none for
# jobtag "-", so version 1 is stale
VERSION = 2
_HASH_CHUNK = 1 << 16
# what json.loads does per row less its checks of input type and trailing
# text, which a row that matched its digest needs no more
_decode_row = json.JSONDecoder().raw_decode


class StaleCheckpoint(ValueError):
    pass


def _feed(sha, fh, stop: int | None = None) -> int:
    """Feed ``sha`` the bytes of ``fh`` from where it stands up to offset
    ``stop``, or to the end; returns the offset reached."""
    offset = fh.tell()
    while stop is None or offset < stop:
        chunk = fh.read(_HASH_CHUNK if stop is None else min(_HASH_CHUNK, stop - offset))
        if not chunk:
            break
        sha.update(chunk)
        offset += len(chunk)
    return offset


@dataclass
class Covered:
    """How much of one log a table covers: the records up to ``sequence``,
    which end at byte ``offset``; ``sha`` has been fed the bytes before it."""
    sequence: int
    offset: int
    sha: object

    @classmethod
    def nothing(cls) -> "Covered":
        return cls(0, 0, sha256())

    @classmethod
    def check(cls, path, entry) -> "Covered":
        """The coverage a checkpoint header names, if ``path`` begins with
        the bytes it was taken over."""
        sequence, offset, hexdigest = entry
        covered = cls(sequence, 0, sha256())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                covered.offset = _feed(covered.sha, fh, offset)
        if covered.offset != offset or covered.sha.hexdigest() != hexdigest:
            raise StaleCheckpoint(f"{path} does not begin with the {offset} bytes it covered")
        return covered

    def extended(self, path, sequence: int) -> "Covered":
        """The same coverage carried to the current end of the log."""
        sha = self.sha.copy()
        with open(path, "rb") as fh:
            fh.seek(self.offset)
            return Covered(sequence, _feed(sha, fh), sha)

    def entry(self) -> list:
        return [self.sequence, self.offset, self.sha.hexdigest()]


def row(record: JobRecord) -> list:
    """A job as one checkpoint row, in the form a replay of its events
    gives: every field, the RSL text the ``created`` event logged and the
    history flattened to time, event, actor triples."""
    history = []
    for h in record.history:
        history += (h.time, h.event, h.actor)
    return [record.job_id, record.state.value, record.owner.render(), record.account,
            record.jobtag, record.rsl, record.priority, record.duration, record.started_at,
            record.ended_at, record.active_time, record.active_since, history]


def _restore(jm: JobManager, row: list):
    """Enter a job into ``jm`` from its row, in id order."""
    (job_id, state, owner, account, jobtag, rsl, priority, duration,
     started_at, ended_at, active_time, active_since, history) = row
    triples = iter(history)
    # event names and actors repeat from job to job: one copy of each
    history = [HistoryEvent(time, intern(event), intern(actor))
               for time, event, actor in zip(triples, triples, triples)]
    record = JobRecord(job_id, jm._owner(owner), account, jobtag, rsl,
                       JobState(state), priority, duration, started_at, ended_at,
                       history, active_time, active_since)
    jm.jobs[job_id] = record
    if record.state not in TERMINAL_STATES:
        jm._live[job_id] = record


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode()


def _header_line(header: dict, digest: str) -> bytes:
    return _canonical({**header, "digest": digest}) + b"\n"


def write_checkpoint(path: Path, jm: JobManager, audit: Covered, events: Covered):
    """Write ``jm``'s table row by row to a temporary file, then rename it
    over ``path``.  No fsync: a checkpoint the disk did not keep whole
    fails its digest, and the start that meets it replays the logs."""
    jobs = jm.jobs.values()
    header = {
        "version": VERSION,
        # the clock a replay of the covered events ends at: a live TICK
        # that changed nothing moved the clock of the table written at
        # close but logged no event
        "clock": max(0, max((h.time for r in jobs for h in r.history), default=0)),
        "next_id": jm._next_id,
        "audit": audit.entry(),
        "events": events.entry(),
    }
    sha = sha256(_canonical(header))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_header_line(header, "0" * sha.digest_size * 2))
            for record in jobs:
                line = json.dumps(row(record)).encode() + b"\n"
                sha.update(line)
                fh.write(line)
            fh.seek(0)  # the real digest is as long as the placeholder
            fh.write(_header_line(header, sha.hexdigest()))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: Path, audit_path, event_path, jm: JobManager):
    """Fill the empty ``jm`` from the checkpoint at ``path``; returns the
    coverage of the audit and event logs.  Raises StaleCheckpoint (or the
    error met while reading) for a checkpoint that does not hold."""
    with open(path, "rb") as fh:
        line = fh.readline()
        header = json.loads(line)
        digest = header.pop("digest")
        if header.get("version") != VERSION:
            raise StaleCheckpoint(f"version {header.get('version')!r}")
        audit = Covered.check(audit_path, header["audit"])
        events = Covered.check(event_path, header["events"])
        sha = sha256(_canonical(header))
        _feed(sha, fh)
        if sha.hexdigest() != digest:
            raise StaleCheckpoint("digest does not match")
        fh.seek(len(line))
        for raw in fh:
            _restore(jm, _decode_row(raw.decode())[0])
    jm._next_id, jm.clock = header["next_id"], header["clock"]
    return audit, events
