"""Runtime-configurable authorization callouts.

The abstract callout name 'gram-authz' must be bound before the service
starts.  Providers are plain callables taking CalloutArgs and returning
CalloutResult, built with success(), denied() or system_failure() unless
it wraps the policy documents' decision; a provider that raises is
reported as SYSTEM_FAILURE, never propagated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import engine
from .engine import AuthorizationRequest, Decision, JobContext, Outcome
from .policy import GridIdentity
from .rsl import JobDescription

GRAM_AUTHZ = "gram-authz"


class CalloutError(Exception):
    pass


class MissingBinding(CalloutError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no provider bound for abstract callout {name!r}")


class DuplicateProvider(CalloutError):
    def __init__(self, provider_id: str):
        self.provider_id = provider_id
        super().__init__(f"provider {provider_id!r} already registered")


class CalloutConfigError(CalloutError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class CalloutArgs:
    requester: GridIdentity
    action: str
    description: JobDescription
    initiator: GridIdentity | None = None
    job_id: str | None = None
    job_context: JobContext | None = None

    def __post_init__(self):
        management = self.action != "start"
        if management and self.initiator is None:
            raise ValueError("management callouts carry the job initiator")
        if not management and self.initiator is not None:
            raise ValueError("start callouts carry no initiator")


class CalloutOutcome(Enum):
    SUCCESS = "SUCCESS"
    DENIED = "DENIED"
    SYSTEM_FAILURE = "SYSTEM_FAILURE"


_OUTCOMES = {
    Outcome.PERMIT: CalloutOutcome.SUCCESS,
    Outcome.DENY: CalloutOutcome.DENIED,
    Outcome.ERROR: CalloutOutcome.SYSTEM_FAILURE,
}


class CalloutResult(NamedTuple):
    decision: Decision

    @property
    def outcome(self) -> CalloutOutcome:
        return _OUTCOMES[self.decision.outcome]


# decisions not made by the policy documents are the callout layer's own
def success() -> CalloutResult:
    return CalloutResult(Decision(Outcome.PERMIT, "", "CALLOUT"))


def denied(reason: str) -> CalloutResult:
    if not reason:
        raise ValueError("DENIED results carry a reason")
    return CalloutResult(Decision(Outcome.DENY, reason, "CALLOUT"))


def system_failure(detail: str) -> CalloutResult:
    return CalloutResult(Decision(Outcome.ERROR, detail, "CALLOUT"))


@dataclass
class CalloutConfig:
    bindings: dict[str, str]
    warnings: list[str]

    def require(self, name: str) -> None:
        if name not in self.bindings:
            raise MissingBinding(name)


def parse_callout_config(text: str) -> CalloutConfig:
    """One binding per line: '<abstract-name> <provider-id>'."""
    bindings: dict[str, str] = {}
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CalloutConfigError(lineno, f"expected '<name> <provider>', got {line!r}")
        name, provider = parts
        if name in bindings:
            warnings.append(
                f"line {lineno}: binding for {name!r} overrides {bindings[name]!r}"
            )
        bindings[name] = provider
    return CalloutConfig(bindings, warnings)


class CalloutRegistry:
    def __init__(self):
        self._providers: dict[str, object] = {}

    def register(self, provider_id: str, provider) -> "CalloutRegistry":
        if provider_id in self._providers:
            raise DuplicateProvider(provider_id)
        self._providers[provider_id] = provider
        return self

    def get(self, provider_id: str):
        return self._providers.get(provider_id)


def allow_all_provider(args: CalloutArgs) -> CalloutResult:
    return success()


def deny_all_provider(args: CalloutArgs) -> CalloutResult:
    return denied("deny-all")


def make_rsl_pep_provider(get_policies):
    """PEP provider over the loaded (local, vo) policy documents.

    get_policies is called per invocation so an atomic policy reload is
    picked up without re-registering the provider.
    """

    def rsl_pep(args: CalloutArgs) -> CalloutResult:
        local_doc, vo_doc = get_policies()
        req = AuthorizationRequest(
            requester=args.requester,
            action=args.action,
            description=args.description,
            job_context=args.job_context,
        )
        return CalloutResult(engine.authorize(local_doc, vo_doc, req)[0])

    return rsl_pep


def make_builtin_registry(get_policies) -> CalloutRegistry:
    registry = CalloutRegistry()
    registry.register("rsl-pep", make_rsl_pep_provider(get_policies))
    registry.register("allow-all", allow_all_provider)
    registry.register("deny-all", deny_all_provider)
    return registry


@dataclass
class Callouts:
    """Config plus registry; the single entry point for invocations."""

    config: CalloutConfig
    registry: CalloutRegistry

    def invoke(self, abstract_name: str, args: CalloutArgs) -> CalloutResult:
        provider_id = self.config.bindings.get(abstract_name)
        if provider_id is None:
            return system_failure(f"no binding for callout {abstract_name!r}")
        provider = self.registry.get(provider_id)
        if provider is None:
            return system_failure(f"no provider registered as {provider_id!r}")
        try:
            return provider(args)
        except Exception as exc:  # provider failures never crash the caller
            return system_failure(f"provider {provider_id!r} failed: {exc}")
