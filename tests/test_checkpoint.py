"""The checkpoint file: ``Service.close`` writes it, a start from it gives
the state a full replay gives, and a checkpoint that does not hold is
ignored with a warning."""

import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridauthz import service as service_module
from gridauthz.checkpoint import VERSION, row
from gridauthz.service import CorruptLog, Service, ServiceConfig, _q

from conftest import BO_DN, KATE_DN, write_service_tree
from test_service import (REF_EXTENDED, _drive_restart_mix, _perfbench_gen)


def _config(root: Path) -> ServiceConfig:
    return ServiceConfig.from_file(root / "service.conf")


def _state(service: Service):
    """All of the restored table, more than ``snapshot()`` shows: the
    clock, the next id, and each job's jobtag as it is held and the job
    as its checkpoint row."""
    jm = service.jobmanager
    return (jm.snapshot(), jm.clock, jm._next_id,
            [(r.jobtag, row(r)) for r in jm.jobs.values()])


def _start(root: Path):
    """(state, warnings) of a start over what ``root`` holds now."""
    service = Service(_config(root))
    service.close()
    return _state(service), service.warnings


def _full_replay(root: Path):
    """The state of a start with no checkpoint; leaves a fresh checkpoint."""
    _config(root).checkpoint_path.unlink(missing_ok=True)
    state, warnings = _start(root)
    assert warnings == []
    return state


def _crash(service: Service):
    """Stop ``service`` as a crash would: the logs end where they are, and
    no checkpoint is written."""
    service.audit_log.close()
    service.event_log.close()


def _live(root: Path, requests: int, checkpoint_after: int):
    """Drive a seeded mix, with a close (which writes a checkpoint) and a
    restart after the first part of it; the rest is logged after the
    checkpoint, and the service stops without writing another."""
    write_service_tree(root, REF_EXTENDED, REF_EXTENDED)
    rng = random.Random(7)
    live = Service(_config(root))
    _drive_restart_mix(live, rng, checkpoint_after)
    live.close()
    live = Service(_config(root))
    _drive_restart_mix(live, rng, requests - checkpoint_after)
    _crash(live)


# -- differential: live, from the checkpoint, from the logs alone ----------

BO, KATE = _q(BO_DN), _q(KATE_DN)
STRANGER = _q("/O=Grid/O=Elsewhere/CN=Nobody")
RSLS = ["&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(maxtime=2)",
        "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=1)",
        "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(maxtime=3)",
        # jobtag "-", which the event log's jobtag field cannot tell from
        # none; a restart takes it from the RSL
        '&(executable=test3)(jobtag="-")',
        "&(executable=rogue)"]  # denied by policy
# lets Bo start the jobtag "-" job
DASH_GRANT = f'\n{BO_DN}:\n&(action = start)(executable = test3)(jobtag = "-")\n'


@st.composite
def requests(draw):
    """A protocol sequence over a few jobs; TICKs may move the clock with no
    event, which a replay cannot see."""
    lines, now = [], 0
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["submit", "submit", "tick", "tick", "cancel",
                                     "signal", "status", "list", "junk"]))
        dn = draw(st.sampled_from([BO, KATE, STRANGER]))
        job = f'"job-{draw(st.integers(1, 8))}"'
        if kind == "submit":
            lines.append(f"SUBMIT dn={dn} rsl={_q(draw(st.sampled_from(RSLS)))}")
        elif kind == "tick":
            now += draw(st.integers(0, 6))
            lines.append(f'TICK now="{now}"')
        elif kind == "cancel":
            lines.append(f"CANCEL dn={dn} job={job}")
        elif kind == "signal":
            signal = draw(st.sampled_from(['kind="suspend"', 'kind="resume"',
                                           'kind="priority" value="4"']))
            lines.append(f"SIGNAL dn={dn} job={job} {signal}")
        elif kind == "status":
            lines.append(f"STATUS dn={dn} job={job}")
        elif kind == "list":
            lines.append('LIST state="ACTIVE"')
        else:
            lines.append("SUBMIT nonsense")
    return lines


@settings(max_examples=60, deadline=None)
@given(requests(), st.data())
def test_checkpointed_start_equals_full_replay(lines, data):
    at = data.draw(st.integers(0, len(lines)), label="restart after")
    # a close writes the live table; a crash leaves a tail to replay
    crash = data.draw(st.booleans(), label="crash at the end")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_service_tree(root, REF_EXTENDED + DASH_GRANT, REF_EXTENDED + DASH_GRANT)
        live = Service(_config(root))
        for line in lines[:at]:
            live.handle_request(line)
        live.close()
        live = Service(_config(root))
        for line in lines[at:]:
            live.handle_request(line)
        snapshot = live.jobmanager.snapshot()
        if crash:
            _crash(live)
        else:
            live.close()
        assert live.warnings == []
        path = _config(root).checkpoint_path
        taken = path.read_bytes() if path.exists() else None

        from_checkpoint, warnings = _start(root)
        assert warnings == []
        if taken is not None:
            path.write_bytes(taken[:-2] + bytes([taken[-2] ^ 1]) + b"\n")  # a flipped byte
            from_stale, warnings = _start(root)
            assert len(warnings) == 1 and "stale checkpoint" in warnings[0]
        path.unlink(missing_ok=True)
        from_logs, warnings = _start(root)
        assert warnings == []

        assert from_checkpoint[0] == from_logs[0] == snapshot
        assert from_checkpoint == from_logs
        if taken is not None:
            assert from_stale == from_logs


# -- close writes a checkpoint and the next start replays only the tail -----


def _counting_reads(monkeypatch):
    """The event records replayed and the audit records counted from now on."""
    replayed, counted = [], []
    replay_events = service_module.replay_events
    read_log = service_module._read_log

    def replay(events, jm):
        return replay_events((replayed.append(ev) or ev for ev in events), jm)

    def read(path, start=(0, 0)):
        for record in read_log(path, start):
            if Path(path).name == "audit.log":
                counted.append(record)
            yield record

    monkeypatch.setattr(service_module, "replay_events", replay)
    monkeypatch.setattr(service_module, "_read_log", read)
    return replayed, counted


def test_a_start_replays_only_what_follows_its_checkpoint(tmp_path, monkeypatch):
    config = write_service_tree(tmp_path, REF_EXTENDED, REF_EXTENDED)
    _perfbench_gen().write_restart_log(
        random.Random(1), tmp_path / "audit.log", tmp_path / "events.log", 200)
    path = ServiceConfig.from_file(config).checkpoint_path
    first = Service(ServiceConfig.from_file(config))
    assert not path.exists()  # a start writes no checkpoint
    first.close()
    assert first.warnings == []
    logged = first.event_log.sequence
    written = path.read_bytes()

    replayed, counted = _counting_reads(monkeypatch)
    second = Service(ServiceConfig.from_file(config))
    assert replayed == counted == [] and _state(second) == _state(first)
    second.close()
    assert path.read_bytes() == written  # nothing logged since: nothing rewritten

    third = Service(ServiceConfig.from_file(config))
    _drive_restart_mix(third, random.Random(3), 40)
    events, audits = third.event_log.sequence, third.audit_log.sequence
    live = _state(third)
    _crash(third)
    fourth = Service(ServiceConfig.from_file(config))
    fourth.close()
    assert [int(ev["seq"]) for ev in replayed] == list(range(logged + 1, events + 1))
    assert len(counted) == audits - first.audit_log.sequence
    assert (fourth.event_log.sequence, fourth.audit_log.sequence) == (events, audits)
    assert _state(fourth)[0] == live[0]
    assert path.read_bytes() != written  # closed after a replayed tail: a new checkpoint

    replayed.clear(), counted.clear()
    fifth = Service(ServiceConfig.from_file(config))
    fifth.close()
    assert replayed == counted == [] and _state(fifth) == _state(fourth)


def test_no_checkpoint_after_a_log_record_that_could_not_be_written(tmp_path, monkeypatch):
    _live(tmp_path, 40, 40)
    path = _config(tmp_path).checkpoint_path
    written = path.read_bytes()
    service = Service(_config(tmp_path))
    write = service.event_log._write

    def full_disk(line):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(service.event_log, "_write", full_disk)
    assert service.handle_request(f"SUBMIT dn={BO} rsl={_q(RSLS[1])}") == \
        "E-ERROR internal error: OSError"
    monkeypatch.setattr(service.event_log, "_write", write)
    assert service.handle_request(f"SUBMIT dn={BO} rsl={_q(RSLS[1])}").startswith("OK ")
    service.close()
    # the table holds a job the log does not, and the log has a gap
    assert service.warnings == ["checkpoint not written: a log record could not be written"]
    assert path.read_bytes() == written

    def outcome():
        with pytest.raises(CorruptLog) as e:
            Service(_config(tmp_path))
        return e.value.sequence

    with_checkpoint = outcome()
    path.unlink()
    # the sequence of the record that was not written
    assert with_checkpoint == outcome() == service.event_log.sequence - 1


def test_a_checkpoint_written_at_close_holds_the_replay_state(tmp_path):
    # a jobtag of "-", and a TICK that moves the clock but changes no job
    write_service_tree(tmp_path, REF_EXTENDED + DASH_GRANT, REF_EXTENDED + DASH_GRANT)
    live = Service(_config(tmp_path))
    assert live.handle_request(f"SUBMIT dn={BO} rsl={_q(RSLS[3])}") == "OK job-1 PENDING"
    live.handle_request('TICK now="3"')
    live.handle_request('TICK now="40"')
    assert (live.jobmanager.jobs["job-1"].jobtag, live.jobmanager.clock) == ("-", 40)
    live.close()
    from_checkpoint, warnings = _start(tmp_path)
    assert warnings == []
    assert from_checkpoint == _full_replay(tmp_path)
    assert (from_checkpoint[1], from_checkpoint[3][0][0]) == (13, "-")


def test_jobtag_dash_reads_the_same_live_replayed_and_checkpointed(tmp_path):
    write_service_tree(tmp_path, REF_EXTENDED + DASH_GRANT, REF_EXTENDED + DASH_GRANT)
    queries = ['LIST jobtag="-"', f'STATUS dn={BO} job="job-1"']
    live = Service(_config(tmp_path))
    assert live.handle_request(f"SUBMIT dn={BO} rsl={_q(RSLS[3])}") == "OK job-1 PENDING"
    assert live.handle_request(f"SUBMIT dn={BO} rsl={_q(RSLS[0])}") == "OK job-2 PENDING"
    answers = [live.handle_request(q) for q in queries]
    live.close()
    assert answers[0] == "OK job-1:PENDING"

    def answers_after(start):
        service = start()
        try:
            return [service.handle_request(q) for q in queries]
        finally:
            service.close()

    from_checkpoint = answers_after(lambda: Service(_config(tmp_path)))
    _config(tmp_path).checkpoint_path.unlink()
    from_logs = answers_after(lambda: Service(_config(tmp_path)))
    assert from_checkpoint == from_logs == answers


def test_empty_logs_leave_no_checkpoint(tmp_path):
    write_service_tree(tmp_path, REF_EXTENDED, REF_EXTENDED)
    assert _start(tmp_path)[1] == []
    assert not _config(tmp_path).checkpoint_path.exists()


def test_a_start_from_a_checkpoint_holds_no_more_than_the_table(tmp_path):
    config = write_service_tree(tmp_path, REF_EXTENDED, REF_EXTENDED)
    _perfbench_gen().write_restart_log(
        random.Random(1), tmp_path / "audit.log", tmp_path / "events.log", 1000)
    Service(ServiceConfig.from_file(config)).close()
    tracemalloc.start()
    try:
        service = Service(ServiceConfig.from_file(config))
        retained, peak = tracemalloc.get_traced_memory()
        # and the write holds one row at a time, never the whole text
        tracemalloc.reset_peak()
        service.checkpoint()
        after, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        service.close()
    assert len(service.jobmanager.jobs) == 1000 and service.warnings == []
    assert peak <= 1.2 * retained, (peak, retained)
    # a hash chunk, file buffers and one row; the text is over three times that
    assert write_peak - after < 100_000 < service.config.checkpoint_path.stat().st_size / 3


# -- stale checkpoints -------------------------------------------------------


def _leftover_tmp(root, path):
    # a write that stopped before its rename: half a file, no checkpoint
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    path.unlink()


def _truncated(root, path):
    path.write_bytes(path.read_bytes()[:-100])


def _flipped_row(root, path):
    # a row that still reads: one digit of a dispatch time changed
    data = bytearray(path.read_bytes())
    at = data.index(b', "dispatched"') - 1
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def _event_log_cut(root, path):
    # the log ends below the checkpoint's offset, at a record boundary
    log = root / "events.log"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:-5]))


def _logs_put_back(root, path, earlier):
    # what the benchmark does between passes: earlier bytes, other files kept
    for name, data in earlier.items():
        (root / name).write_bytes(data)


STALE = {"leftover-tmp": _leftover_tmp, "truncated": _truncated,
         "flipped-row": _flipped_row, "event-log-cut": _event_log_cut,
         "logs-put-back": _logs_put_back}


@pytest.mark.parametrize("case", sorted(STALE))
def test_a_stale_checkpoint_gives_the_full_replay_state(tmp_path, case):
    _live(tmp_path, 120, 60)
    earlier = {name: (tmp_path / name).read_bytes() for name in ("audit.log", "events.log")}
    path = _config(tmp_path).checkpoint_path
    service = Service(_config(tmp_path))
    try:
        _drive_restart_mix(service, random.Random(11), 40)
    finally:
        service.close()
    assert _start(tmp_path)[1] == []  # a checkpoint of the longer logs
    if case == "logs-put-back":
        STALE[case](tmp_path, path, earlier)
    else:
        STALE[case](tmp_path, path)

    state, warnings = _start(tmp_path)
    assert len(warnings) == 1, warnings
    assert ("did not finish" if case == "leftover-tmp" else "stale checkpoint") in warnings[0]
    assert not path.with_name(path.name + ".tmp").exists()
    assert state == _full_replay(tmp_path)


def test_a_checkpoint_of_another_version_is_stale(tmp_path):
    _live(tmp_path, 30, 30)
    path = _config(tmp_path).checkpoint_path
    # a checkpoint in the previous format
    old = f'"version": {VERSION - 1}'.encode()
    path.write_bytes(path.read_bytes().replace(f'"version": {VERSION}'.encode(), old, 1))
    state, warnings = _start(tmp_path)
    assert len(warnings) == 1 and f"version {VERSION - 1}" in warnings[0]
    assert state == _full_replay(tmp_path)


# -- a corrupt log record is met at the same sequence either way --------------


@pytest.mark.parametrize("log", ["audit.log", "events.log"])
@pytest.mark.parametrize("where", ["prefix", "tail"])
def test_corrupt_record_stops_the_start_at_the_same_sequence(tmp_path, log, where):
    _live(tmp_path, 80, 50)
    path = _config(tmp_path).checkpoint_path
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    covered = header["audit" if log == "audit.log" else "events"][0]
    lines = (tmp_path / log).read_bytes().splitlines(keepends=True)
    bad = 2 if where == "prefix" else len(lines) - 1
    assert (bad <= covered) == (where == "prefix")
    lines[bad - 1] = lines[bad - 1].replace(b"seq=", b"seq='", 1)
    (tmp_path / log).write_bytes(b"".join(lines))

    def outcome():
        with pytest.raises(CorruptLog) as e:
            Service(_config(tmp_path))
        return e.value.sequence

    with_checkpoint = outcome()
    path.unlink()
    assert with_checkpoint == outcome() == bad
