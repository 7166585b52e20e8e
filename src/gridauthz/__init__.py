"""Fine-grained, VO-aware authorization and job management over a
simulated grid resource: an RSL-based policy language, a default-deny
policy evaluation point combining local and VO policy, a gatekeeper
with gridmap identity mapping, pluggable authorization callouts, and a
job manager with policy-mediated lifecycle control.
"""

from .engine import (
    AuthorizationRequest,
    Decision,
    JobContext,
    Outcome,
    authorize,
    combine_decisions,
    evaluate_document,
)
from .policy import (
    GridIdentity,
    PolicyDocument,
    PolicyStatement,
    StatementKind,
    SubjectPattern,
    lint_policy,
    parse_policy,
    render_policy,
)
from .rsl import (
    JobDescription,
    Relation,
    RslAssertion,
    RslConjunction,
    apply_defaults,
    parse_rsl,
    render_rsl,
    to_job_description,
)

__all__ = [
    "AuthorizationRequest",
    "Decision",
    "GridIdentity",
    "JobContext",
    "JobDescription",
    "Outcome",
    "PolicyDocument",
    "PolicyStatement",
    "Relation",
    "RslAssertion",
    "RslConjunction",
    "StatementKind",
    "SubjectPattern",
    "apply_defaults",
    "authorize",
    "combine_decisions",
    "evaluate_document",
    "lint_policy",
    "parse_policy",
    "parse_rsl",
    "render_policy",
    "render_rsl",
    "to_job_description",
]
