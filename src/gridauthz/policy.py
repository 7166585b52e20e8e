"""Policy documents: DN subjects, requirement/grant statements, linting.

File grammar::

    # comment
    &/O=Grid/O=Globus/OU=mcs.anl.gov:
    (action = start)(jobtag != NULL)

    /O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu:
    &(action = start)(executable = test1)(count<4)

A block is a subject line ending in ``:`` followed by one or more rule
lines, each a single RSL conjunction.  A ``&`` prefix on the subject
line marks every rule of the block as a REQUIREMENT; otherwise the
rules are GRANTs.  A ``&`` prefix on a rule line is the ordinary RSL
conjunction marker and carries no meaning of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .rsl import (
    Relation,
    RslAssertion,
    RslConjunction,
    RslError,
    SELF,
    Text,
    int_value,
    is_special,
    parse_rsl,
    render_rsl,
)


# entries each memo keeps before it is emptied: the parsed identities by DN
# text, and each document's plans by requester.  Requests may name any DN,
# so neither may grow with the DNs seen; a VO's active members fit.
MEMO_LIMIT = 1024


class PolicyError(ValueError):
    """Base class for policy and identity parse errors."""


class IdentitySyntaxError(PolicyError):
    pass


class PolicySyntaxError(PolicyError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyBlock(PolicySyntaxError):
    def __init__(self, line: int):
        super().__init__(line, "subject has no rules")


@dataclass(frozen=True, eq=False)
class GridIdentity:
    """Distinguished name as an ordered list of (key, value) components.

    Keys compare case-insensitively, values case-sensitively.
    """

    components: tuple[tuple[str, str], ...]
    _key: str = field(init=False, repr=False)
    _text: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_key", "".join(f"{k.lower()}={v}/" for k, v in self.components))

    def key(self) -> str:
        """Comparison form: ``key=value/`` per component, the key folded to
        lower case.  No part of a parsed DN holds a '/' and no key holds an
        '=', so one identity is a component-wise prefix of another exactly
        when its key is a string prefix of the other's."""
        return self._key

    def __eq__(self, other):
        return isinstance(other, GridIdentity) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def render(self) -> str:
        """The DN as written, built on first use: a request renders its
        requester for every SELF check, audit record and event."""
        if self._text is None:
            object.__setattr__(self, "_text", "".join(f"/{k}={v}" for k, v in self.components))
        return self._text

    def __repr__(self):
        return f"GridIdentity({self.render()!r})"

    @classmethod
    def parse(cls, text: str) -> "GridIdentity":
        """The identity a DN names.  Parsed identities are kept by text, up
        to ``MEMO_LIMIT`` of them: an identity is immutable, so requests that
        name one DN share one object, and its key and text are built once."""
        identity = _IDENTITIES.get(text)
        if identity is not None:
            return identity
        t = text.strip()
        if not t.startswith("/"):
            raise IdentitySyntaxError(f"identity must start with '/': {text!r}")
        components = []
        for part in t[1:].split("/"):
            if "=" not in part:
                raise IdentitySyntaxError(f"component {part!r} lacks '='")
            k, _, v = part.partition("=")
            k = k.strip()
            if not k:
                raise IdentitySyntaxError(f"empty key in component {part!r}")
            components.append((k, v.strip()))
        if not components:
            raise IdentitySyntaxError("identity has no components")
        if len(_IDENTITIES) >= MEMO_LIMIT:
            _IDENTITIES.clear()
        identity = _IDENTITIES[text] = cls(tuple(components))
        return identity


_IDENTITIES: dict[str, GridIdentity] = {}


@dataclass(frozen=True)
class SubjectPattern:
    prefix: GridIdentity

    def matches(self, identity: GridIdentity) -> bool:
        return identity.key().startswith(self.prefix.key())

    def render(self) -> str:
        return self.prefix.render()


class StatementKind(Enum):
    REQUIREMENT = "REQUIREMENT"
    GRANT = "GRANT"


@dataclass(frozen=True)
class PolicyStatement:
    subject: SubjectPattern
    kind: StatementKind
    rule: RslConjunction
    source_line: int
    # the 'action' assertions, which decide whether a REQUIREMENT applies
    actions: tuple[RslAssertion, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rule.assertions:
            raise PolicyError("policy rule must be a nonempty conjunction")
        object.__setattr__(self, "actions", tuple(
            a for a in self.rule.assertions if a.attribute == "action"))


@dataclass(frozen=True)
class PolicyDocument:
    statements: tuple[PolicyStatement, ...]
    source: str  # "VO" or "LOCAL"
    label: str = ""
    # statement indices by subject key, each list ascending
    by_subject: dict[str, list[int]] = field(init=False, repr=False, compare=False)
    # by statement index, the compiled form of each statement read so far,
    # and by requester key, the compiled forms of that requester's
    # statements (a plan): both filled by the engine, so a reloaded
    # document starts empty
    compiled: dict[int, tuple] = field(init=False, repr=False, compare=False)
    plans: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, list[int]] = {}
        for i, st in enumerate(self.statements):
            index.setdefault(st.subject.prefix.key(), []).append(i)
        object.__setattr__(self, "by_subject", index)
        object.__setattr__(self, "compiled", {})
        object.__setattr__(self, "plans", {})

    def statements_for(self, identity: GridIdentity) -> list[tuple[int, PolicyStatement]]:
        """(index, statement) of every statement whose subject matches, in
        document order.  Only the buckets of the identity's own prefixes are
        looked at, so the cost does not grow with the number of subjects."""
        key = identity.key()
        indices = []
        end = key.find("/")
        while end >= 0:  # the key of each prefix ends at a '/'
            indices += self.by_subject.get(key[: end + 1], ())
            end = key.find("/", end + 1)
        indices.sort()
        statements = self.statements
        return [(i, statements[i]) for i in indices if statements[i].subject.matches(identity)]


def empty_document(source: str = "LOCAL", label: str = "empty") -> PolicyDocument:
    return PolicyDocument((), source, label)


def parse_policy(text: str, source: str, label: str = "") -> PolicyDocument:
    """The document ``text`` holds; a PolicySyntaxError names it by ``label``."""
    if source not in ("VO", "LOCAL"):
        raise ValueError(f"policy source must be VO or LOCAL, not {source!r}")
    try:
        statements = _statements(text)
    except PolicySyntaxError as e:
        if label:
            e.args = (f"{label}: {e}",)
        raise
    return PolicyDocument(statements, source, label)


def _statements(text: str) -> tuple[PolicyStatement, ...]:
    statements = []
    subject = None
    kind = StatementKind.GRANT
    subject_line = 0
    rules_in_block = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith(":"):
            if subject is not None and rules_in_block == 0:
                raise EmptyBlock(subject_line)
            body = line[:-1].strip()
            k = StatementKind.GRANT
            if body.startswith("&"):
                k = StatementKind.REQUIREMENT
                body = body[1:].strip()
            try:
                identity = GridIdentity.parse(body)
            except IdentitySyntaxError as e:
                raise PolicySyntaxError(lineno, str(e)) from e
            subject = SubjectPattern(identity)
            kind = k
            subject_line = lineno
            rules_in_block = 0
            continue
        if subject is None:
            raise PolicySyntaxError(lineno, "rule line before any subject")
        try:
            rule = parse_rsl(line)
        except RslError as e:
            raise PolicySyntaxError(lineno, f"bad rule: {e}") from e
        statement = PolicyStatement(subject, kind, rule, lineno)
        if len(statement.actions) > 1:
            raise PolicySyntaxError(lineno, "more than one 'action' assertion in one rule")
        statements.append(statement)
        rules_in_block += 1
    if subject is not None and rules_in_block == 0:
        raise EmptyBlock(subject_line)
    return tuple(statements)


def render_policy(doc: PolicyDocument) -> str:
    """Canonical text form; statement-level round-trip with parse_policy."""
    blocks: list[tuple[SubjectPattern, StatementKind, list[PolicyStatement]]] = []
    for st in doc.statements:
        if blocks and blocks[-1][0].prefix == st.subject.prefix and blocks[-1][1] is st.kind:
            blocks[-1][2].append(st)
        else:
            blocks.append((st.subject, st.kind, [st]))
    out = []
    for subject, kind, stmts in blocks:
        marker = "&" if kind is StatementKind.REQUIREMENT else ""
        out.append(f"{marker}{subject.render()}:")
        for st in stmts:
            out.append(render_rsl(st.rule))
        out.append("")
    return "\n".join(out)


def _ordering_interval(assertions):
    """Closed integer interval implied by the ordering relations, or None."""
    lo, hi = None, None
    for a in assertions:
        n = int_value(a.value)
        if n is None:
            continue
        if a.relation is Relation.LT:
            hi = n - 1 if hi is None else min(hi, n - 1)
        elif a.relation is Relation.LE:
            hi = n if hi is None else min(hi, n)
        elif a.relation is Relation.GT:
            lo = n + 1 if lo is None else max(lo, n + 1)
        elif a.relation is Relation.GE:
            lo = n if lo is None else max(lo, n)
    return lo, hi


def lint_policy(doc: PolicyDocument) -> list[str]:
    """Static warnings over one document; an empty list means clean."""
    warnings = []
    for st in doc.statements:
        where = f"line {st.source_line}"
        by_attr: dict[str, list] = {}
        for a in st.rule.assertions:
            by_attr.setdefault(a.attribute, []).append(a)
        if st.kind is StatementKind.GRANT and "action" not in by_attr:
            warnings.append(f"{where}: grant rule has no 'action' assertion")
        for a in st.rule.assertions:
            if a.relation.is_ordering and int_value(a.value) is None:
                warnings.append(
                    f"{where}: ordering relation on non-integer literal "
                    f"in {a.render()}"
                )
            if a.value is SELF and a.attribute != "jobowner":
                warnings.append(
                    f"{where}: SELF used with attribute {a.attribute!r} "
                    "(only 'jobowner' carries an identity)"
                )
        for attr, asserts in by_attr.items():
            orderings = [a for a in asserts if a.relation.is_ordering]
            if not orderings:
                continue
            lo, hi = _ordering_interval(orderings)
            if lo is not None and hi is not None and lo > hi:
                warnings.append(f"{where}: unsatisfiable ordering constraints on {attr!r}")
                continue
            eq_ints = [
                int_value(a.value)
                for a in asserts
                if a.relation is Relation.EQ and not is_special(a.value)
            ]
            eq_ints = [n for n in eq_ints if n is not None]
            if eq_ints and not any(
                (lo is None or n >= lo) and (hi is None or n <= hi) for n in eq_ints
            ):
                warnings.append(
                    f"{where}: no '=' value on {attr!r} satisfies its ordering constraints"
                )
    return warnings
