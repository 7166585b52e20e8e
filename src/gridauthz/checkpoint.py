"""The checkpoint file: the job table as of a point in both logs, so that a
start replays only the records after it.

``<event_log_path>.checkpoint`` is a header line, then one JSON row per job
(``row``) in id order.  For each log the header holds the sequence and byte
offset the rows cover and the BLAKE2b-256 hash of the bytes before that
offset; its digest, also BLAKE2b-256, covers its other fields and every
row.  A start loads a checkpoint only if all of that holds, then replays
just the records after the offsets.  Any other checkpoint is stale: the
logs are the record of truth, so the start replays them whole and says so.

A load builds each live job's record and keeps a finished job's row as
the bytes read until the job is first read; a write copies a row never
built back as it was.  The header clock, the latest event time of any job,
is the larger of the loaded clock, which no unbuilt row's history passes,
and the built jobs' latest time.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from sys import intern

from .jobmanager import TERMINAL_STATES, HistoryEvent, JobManager, JobRecord, JobState

# CPython's own BLAKE2b, about 3x as fast as its SHA-256; hashlib would map
# OpenSSL, 3.5 MB more resident, for no faster a BLAKE2b
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# the hashes are BLAKE2b-256; version 2 held SHA-256 hashes, so it is stale
VERSION = 3
_HASH_CHUNK = 1 << 16
# what json.loads does per row less its checks of input type and trailing
# text: the digest checks a row's text, and no table is used before it has
_decode_row = json.JSONDecoder().raw_decode
# a row's state by its value
_STATES = {state.value: state for state in JobState}
# the id of a finished job's row, as ``row`` writes it; an id that JSON
# escapes does not match, and its row is built at load like a live one's
_finished_row = re.compile(rb'\["([^"\\]*)", "(?:DONE|CANCELED)", ').match
_hash = partial(blake2b, digest_size=32)  # BLAKE2b-256


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
        return cls(0, 0, _hash())

    @classmethod
    def check(cls, path, entry) -> "Covered":
        """The coverage a checkpoint header names, if ``path`` begins with
        the bytes it was taken over."""
        sequence, offset, hexdigest = entry
        covered = cls(sequence, 0, _hash())
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


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode()


def _header_line(header: dict, digest: str) -> bytes:
    return _canonical({**header, "digest": digest}) + b"\n"


def write_checkpoint(path: Path, jm: JobManager, audit: Covered, events: Covered):
    """Write ``jm``'s table row by row to a temporary file, then rename it
    over ``path``.  No fsync: a checkpoint the disk did not keep whole
    fails its digest, and the start that meets it replays the logs."""
    held = jm.jobs.held()
    header = {
        "version": VERSION,
        # not jm.clock: a live TICK that changed nothing logged no event
        "clock": max(jm.jobs.rows_clock, max((h.time for r in held if r.__class__ is not bytes
                                              for h in r.history), default=0)),
        "next_id": jm._next_id,
        "audit": audit.entry(),
        "events": events.entry(),
    }
    sha = _hash(_canonical(header))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_header_line(header, "0" * sha.digest_size * 2))
            for record in held:
                line = record if record.__class__ is bytes else \
                    json.dumps(row(record)).encode() + b"\n"
                sha.update(line)
                fh.write(line)
            fh.seek(0)  # the real digest is as long as the placeholder
            fh.write(_header_line(header, sha.hexdigest()))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _restore(jm: JobManager, raw: bytes, job_id: str | None = None) -> JobRecord:
    """The job of one checkpoint row, with its owner shared through ``jm``;
    a given ``job_id`` (the table's key) is used for its id, not a copy."""
    (row_id, state, owner, account, jobtag, rsl, priority, duration,
     started_at, ended_at, active_time, active_since, history) = _decode_row(raw.decode())[0]
    triples = iter(history)
    return JobRecord(
        job_id or row_id, jm._owner(owner), account, jobtag, rsl,
        _STATES[state], priority, duration, started_at, ended_at,
        # event names and actors repeat from job to job: one copy of each
        [HistoryEvent(time, intern(event), intern(actor))
         for time, event, actor in zip(triples, triples, triples)],
        active_time, active_since)


def load_checkpoint(path: Path, audit_path, event_path, jm: JobManager):
    """Fill the empty ``jm`` from the checkpoint at ``path`` in one pass that
    hashes and enters each row; returns the coverage of the audit and event
    logs; a finished job's row is entered as it was read.  Raises
    StaleCheckpoint (or the error met while reading) for a checkpoint that
    does not hold, with ``jm`` then partly filled."""
    jobs, live = jm.jobs, jm._live
    with open(path, "rb") as fh:
        line = fh.readline()
        header = json.loads(line)
        digest = header.pop("digest")
        if header.get("version") != VERSION:
            raise StaleCheckpoint(f"version {header.get('version')!r}")
        audit = Covered.check(audit_path, header["audit"])
        events = Covered.check(event_path, header["events"])
        sha = _hash(_canonical(header))
        for raw in fh:
            sha.update(raw)
            finished = _finished_row(raw)
            if finished:
                jobs[finished[1].decode()] = raw
            else:
                record = _restore(jm, raw)
                jobs[record.job_id] = record
                if record.state not in TERMINAL_STATES:
                    live[record.job_id] = record
    if sha.hexdigest() != digest:
        raise StaleCheckpoint("digest does not match")
    jobs.build, jobs.rows_clock = partial(_restore, jm), header["clock"]
    jm._next_id, jm.clock = header["next_id"], header["clock"]
    return audit, events
