"""Spans around the public entry points of each gridauthz module.

The wrappers live here, outside the program: ``Tracer.install`` replaces
each target in its defining module, in every other gridauthz module that
imported it by name, and on its class for methods.  Spans stay in memory
as tuples and are turned into per-layer metrics after the run.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id, tag)``.
``request_id`` is set by the ``service.handle_request`` span and
inherited by everything it calls on the same thread; it is -1 outside a
request.  ``tag`` is a small per-span fact (an outcome, a table size).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


def _outcome(result):
    return getattr(getattr(result, "outcome", None), "value", None)


def _authorize_tag(args, result):
    return _outcome(result[0])


def _invoke_tag(args, result):
    return _outcome(result)


def _audit_tag(args, result):
    # AuditLog.record(self, timestamp, requester, action, job_id, decision, ref, source)
    return f"{args[7]}:{args[3]}" if len(args) > 7 else None


def _handle_tag(args, result):
    return (threading.get_ident(), args[1])


def _tick_pre(args):
    jobs = args[0].jobs
    live = sum(1 for r in jobs.values() if r.state.value in ("PENDING", "ACTIVE", "SUSPENDED"))
    return (len(jobs), live)


# (module, attribute path, span name, tagger, pre-call hook)
SPAN_TARGETS = (
    ("rsl", "parse_rsl", "rsl.parse_rsl", None, None),
    ("rsl", "description_to_rsl", "rsl.description_to_rsl", None, None),
    ("policy", "parse_policy", "policy.parse_policy", None, None),
    ("engine", "authorize", "engine.authorize", _authorize_tag, None),
    ("engine", "evaluate_document", "engine.evaluate_document", None, None),
    ("callout", "Callouts.invoke", "callout.invoke", _invoke_tag, None),
    ("gatekeeper", "admit", "gatekeeper.admit", None, None),
    ("gatekeeper", "Gridmap.lookup", "gatekeeper.lookup", None, None),
    ("jobmanager", "JobManager.submit", "jobmanager.submit", None, None),
    ("jobmanager", "JobManager.tick", "jobmanager.tick", None, _tick_pre),
    ("jobmanager", "JobManager.cancel", "jobmanager.manage", None, None),
    ("jobmanager", "JobManager.signal", "jobmanager.manage", None, None),
    ("jobmanager", "JobManager.status", "jobmanager.manage", None, None),
    ("service", "Service.handle_request", "service.handle_request", _handle_tag, None),
    ("service", "AuditLog.__init__", "service.audit_open", None, None),
    ("service", "AuditLog.record", "service.audit_append", _audit_tag, None),
    ("service", "EventLog.record", "service.event_append", None, None),
    ("service", "read_event_log", "service.read_event_log", None, None),
    ("service", "replay_events", "service.replay", None, None),
    ("cli", "main", "cli.main", None, None),
)

# called thousands of times per request: counted, not timed
COUNT_TARGETS = (
    ("policy", "SubjectPattern.matches", "policy.matches"),
)


class Tracer:
    def __init__(self, count_calls: bool = True):
        self.count_calls = count_calls
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self):
        # load every module first, so each ``from .x import name`` binding
        # exists when the names are replaced and is restored by uninstall()
        for target in SPAN_TARGETS + COUNT_TARGETS:
            importlib.import_module(f"gridauthz.{target[0]}")
        for mod, path, name, tagger, pre in SPAN_TARGETS:
            self._replace(mod, path, lambda fn, n=name, t=tagger, p=pre: self._span(
                fn, n, t, p, request=(n == "service.handle_request")))
        for mod, path, name in COUNT_TARGETS if self.count_calls else ():
            self._replace(mod, path, lambda fn, n=name: self._count(fn, n))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, mod, path, make):
        module = importlib.import_module(f"gridauthz.{mod}")
        owner, _, attr = path.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod}.{path}")
                return
            self._undo.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{mod}.{path}")
            return
        wrapper = make(original)
        # every module that bound the name with ``from .x import name``
        for name, other in list(sys.modules.items()):
            if name == "gridauthz" or name.startswith("gridauthz."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._undo.append((other, key, original))
                        setattr(other, key, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name, tagger, pre, request=False):
        ids, requests, local, append = self._ids, self._requests, self._local, self.spans.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.request = -1
            tag = pre(args) if pre else None
            sid = next(ids)
            parent = stack[-1] if stack else -1
            outer_request = local.request
            if request:
                local.request = next(requests)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                append((sid, name, t0, t1, parent, local.request, type(exc).__name__))
                local.request = outer_request
                raise
            t1 = clock()
            stack.pop()
            if tagger is not None:
                tag = tagger(args, result)
            append((sid, name, t0, t1, parent, local.request, tag))
            local.request = outer_request
            return result

        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        hit = name + ".hit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if result:
                counts[hit] += 1
            return result

        return wrapper

    def mark(self) -> int:
        """A position in the span list, for splitting phases."""
        return len(self.spans)


# -- turning spans into numbers ----------------------------------------


def percentile(values, p):
    """Nearest-rank percentile; None for an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-p * len(ordered) // 100) - 1))
    return ordered[int(k)]


def median(values):
    return percentile(values, 50)


class SpanIndex:
    """Durations and self times of a list of spans, in microseconds."""

    def __init__(self, spans):
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in spans:
            sid, name, t0, t1 = span[:4]
            self.by_name[name].append(span + ((t1 - t0 - child_ns.get(sid, 0)),))

    def named(self, name, in_request=True):
        return [s for s in self.by_name.get(name, ()) if not in_request or s[5] >= 0]

    def durations_us(self, name, in_request=True):
        return [(s[3] - s[2]) / 1e3 for s in self.named(name, in_request)]

    def self_us(self, name, in_request=True):
        return [s[7] / 1e3 for s in self.named(name, in_request)]

    def total_s(self, name, in_request=False):
        return sum(s[3] - s[2] for s in self.named(name, in_request)) / 1e9

    def count(self, name, in_request=True):
        return len(self.named(name, in_request))
