"""Per-layer metrics of a traced pass, computed from its spans.

Each metric is listed in ``LAYER_METRICS`` with its unit.  Times are
medians unless the name says otherwise; "self" is a span's duration
minus the time its child spans cover.  A metric with no samples (or a
ratio with nothing to divide by) is None.
"""

from __future__ import annotations

from spans import SpanIndex, median, percentile

LAYER_METRICS = {
    "rsl.parse_per_request": "count",
    "rsl.parse_us": "us",
    "rsl.render_per_request": "count",
    "policy.parse_s": "s",
    "policy.match_per_decision": "count",
    "policy.match_hit_ratio": "ratio",
    "engine.authorize_p50_us": "us",
    "engine.authorize_p99_us": "us",
    "engine.evaluate_document_p50_us": "us",
    "engine.authorize_per_request": "count",
    "engine.permit_ratio": "ratio",
    "callout.invoke_self_us": "us",
    "callout.failure_count": "count",
    "gatekeeper.admit_self_us": "us",
    "gatekeeper.gridmap_lookup_us": "us",
    "gatekeeper.gate_deny_ratio": "ratio",
    "jobmanager.submit_us": "us",
    "jobmanager.tick_self_p50_us": "us",
    "jobmanager.tick_self_p99_us": "us",
    "jobmanager.table_size": "count",
    "jobmanager.live_ratio": "ratio",
    "jobmanager.manage_self_us": "us",
    "jobmanager.self_rule_ratio": "ratio",
    "service.handle_self_us": "us",
    "service.audit_append_us": "us",
    "service.event_append_us": "us",
    "service.audit_records_per_request": "count",
    "service.event_records_per_request": "count",
    "service.log_bytes_per_request": "B",
    "service.read_event_log_s": "s",
    "service.replay_s": "s",
    "service.audit_open_s": "s",
    "service.wire_overhead_us": "us",
    "harness.gen_late_p99_us": "us",
    "harness.trace_overhead_ratio": "ratio",
}

# the wrapped entry point each group of metrics needs
NEEDS = {
    "rsl.": ("rsl.parse_rsl", "rsl.description_to_rsl"),
    "policy.parse": ("policy.parse_policy",),
    "policy.match": ("policy.SubjectPattern.matches",),
    "engine.": ("engine.authorize", "engine.evaluate_document"),
    "callout.": ("callout.Callouts.invoke",),
    "gatekeeper.admit": ("gatekeeper.admit",),
    "gatekeeper.gate": ("gatekeeper.admit",),
    "gatekeeper.gridmap": ("gatekeeper.Gridmap.lookup",),
    "jobmanager.submit": ("jobmanager.JobManager.submit",),
    "jobmanager.tick": ("jobmanager.JobManager.tick",),
    "jobmanager.table": ("jobmanager.JobManager.tick",),
    "jobmanager.live": ("jobmanager.JobManager.tick",),
    "jobmanager.manage": ("jobmanager.JobManager.cancel",),
    "jobmanager.self_rule": ("service.AuditLog.record",),
    "service.audit": ("service.AuditLog.record", "service.AuditLog.__init__"),
    "service.event": ("service.EventLog.record",),
    "service.read": ("service.read_event_log",),
    "service.replay": ("service.replay_events",),
    "service.handle": ("service.Service.handle_request",),
}


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(setup_spans, run_spans, restart_spans, counts, *, log_bytes,
                  wire_overhead_us, gen_late_us, trace_overhead_ratio):
    """Per-layer metrics from the spans of one traced pass.

    ``setup_spans`` cover one ``Service`` start, ``run_spans`` the timed
    requests, ``restart_spans`` the restart of a fresh ``Service`` from
    the logs the pass left behind (the replay check).
    """
    setup, run, restart = SpanIndex(setup_spans), SpanIndex(run_spans), SpanIndex(restart_spans)
    requests = run.count("service.handle_request")
    authorizes = run.count("engine.authorize")
    admits = run.named("gatekeeper.admit")
    ticks = run.named("jobmanager.tick")
    audits = run.named("service.audit_append")
    management_audits = [s for s in audits if s[6] and not str(s[6]).endswith(":start")]
    matches = counts.get("policy.matches", 0)
    return {
        "rsl.parse_per_request": _ratio(run.count("rsl.parse_rsl"), requests),
        "rsl.parse_us": median(run.durations_us("rsl.parse_rsl")),
        "rsl.render_per_request": _ratio(run.count("rsl.description_to_rsl"), requests),
        "policy.parse_s": setup.total_s("policy.parse_policy"),
        "policy.match_per_decision": _ratio(matches, authorizes),
        "policy.match_hit_ratio": _ratio(counts.get("policy.matches.hit", 0), matches),
        "engine.authorize_p50_us": median(run.durations_us("engine.authorize")),
        "engine.authorize_p99_us": percentile(run.durations_us("engine.authorize"), 99),
        "engine.evaluate_document_p50_us": median(run.durations_us("engine.evaluate_document")),
        "engine.authorize_per_request": _ratio(authorizes, requests),
        "engine.permit_ratio": _ratio(
            sum(1 for s in run.named("engine.authorize") if s[6] == "PERMIT"), authorizes),
        "callout.invoke_self_us": median(run.self_us("callout.invoke")),
        "callout.failure_count": sum(
            1 for s in run.named("callout.invoke") if s[6] == "SYSTEM_FAILURE"),
        "gatekeeper.admit_self_us": median(run.self_us("gatekeeper.admit")),
        "gatekeeper.gridmap_lookup_us": median(run.durations_us("gatekeeper.lookup")),
        "gatekeeper.gate_deny_ratio": _ratio(
            sum(1 for s in admits if s[6] == "NotAuthorized"), len(admits)),
        "jobmanager.submit_us": median(run.durations_us("jobmanager.submit")),
        "jobmanager.tick_self_p50_us": median(run.self_us("jobmanager.tick")),
        "jobmanager.tick_self_p99_us": percentile(run.self_us("jobmanager.tick"), 99),
        "jobmanager.table_size": _ratio(
            sum(s[6][0] for s in ticks if isinstance(s[6], tuple)), len(ticks)),
        "jobmanager.live_ratio": _ratio(
            sum(s[6][1] for s in ticks if isinstance(s[6], tuple)),
            sum(s[6][0] for s in ticks if isinstance(s[6], tuple))),
        "jobmanager.manage_self_us": median(run.self_us("jobmanager.manage")),
        "jobmanager.self_rule_ratio": _ratio(
            sum(1 for s in management_audits if str(s[6]).startswith("SELF-RULE:")),
            len(management_audits)),
        "service.handle_self_us": median(run.self_us("service.handle_request")),
        "service.audit_append_us": median(run.durations_us("service.audit_append")),
        "service.event_append_us": median(run.durations_us("service.event_append")),
        "service.audit_records_per_request": _ratio(len(audits), requests),
        "service.event_records_per_request": _ratio(run.count("service.event_append"), requests),
        "service.log_bytes_per_request": _ratio(log_bytes, requests),
        "service.read_event_log_s": restart.total_s("service.read_event_log"),
        "service.replay_s": restart.total_s("service.replay"),
        "service.audit_open_s": restart.total_s("service.audit_open"),
        "service.wire_overhead_us": wire_overhead_us,
        "harness.gen_late_p99_us": percentile(gen_late_us, 99),
        "harness.trace_overhead_ratio": trace_overhead_ratio,
    }


def unmeasured(missing) -> dict[str, str]:
    """Metrics whose wrapped entry point no longer exists, with the reason."""
    out = {}
    for metric in LAYER_METRICS:
        for prefix, targets in NEEDS.items():
            gone = [t for t in targets if t in missing]
            if metric.startswith(prefix) and gone:
                out[metric] = f"entry point {', '.join(gone)} not found"
    return out
