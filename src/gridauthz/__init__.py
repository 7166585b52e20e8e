"""Fine-grained, VO-aware authorization and job management over a
simulated grid resource: an RSL-based policy language, a default-deny
policy evaluation point combining local and VO policy, a gatekeeper
with gridmap identity mapping, pluggable authorization callouts, and a
job manager with policy-mediated lifecycle control.
"""
