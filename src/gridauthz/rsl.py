"""RSL subset: parsing, canonical printing, and job-description extraction.

The accepted form is a single conjunction of relational clauses:

    &(executable = test1)(directory = /sandbox/test)(count < 4)

The leading ``&`` is optional.  Attribute names are case-insensitive and
folded to lowercase; values are bare tokens, signed integers, or
double-quoted text.  The unquoted tokens ``NULL`` and ``SELF`` parse to
special markers used on the policy side (absence/presence check and
requester identity, respectively).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class RslError(ValueError):
    """Base class for RSL parsing and conversion errors."""


class RslSyntaxError(RslError):
    def __init__(self, offset: int, expected: str, found: str = ""):
        self.offset = offset
        self.expected = expected
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(f"offset {offset}: expected {expected}{what}")


class OrderingOnSpecial(RslError):
    def __init__(self, attribute: str, relation: "Relation"):
        self.attribute = attribute
        self.relation = relation
        super().__init__(
            f"ordering relation {relation.symbol!r} not allowed against "
            f"NULL/SELF (attribute {attribute!r})"
        )


class NonEqualityInRequest(RslError):
    def __init__(self, attribute: str):
        self.attribute = attribute
        super().__init__(f"job description may use only '=' (attribute {attribute!r})")


class SpecialValueInRequest(RslError):
    def __init__(self, attribute: str):
        self.attribute = attribute
        super().__init__(f"NULL/SELF not allowed in a job description (attribute {attribute!r})")


class RepeatedAttribute(RslError):
    def __init__(self, attribute: str):
        self.attribute = attribute
        super().__init__(f"attribute {attribute!r} may have only one value in a job description")


class Relation(Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def is_ordering(self) -> bool:
        return self in (Relation.LT, Relation.GT, Relation.LE, Relation.GE)


class RslValue:
    __slots__ = ()


@dataclass(frozen=True)
class Text(RslValue):
    text: str


@dataclass(frozen=True)
class Integer(RslValue):
    value: int


@dataclass(frozen=True)
class _Special(RslValue):
    name: str


NULL = _Special("NULL")
SELF = _Special("SELF")

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


def is_special(value: RslValue) -> bool:
    return isinstance(value, _Special)


def int_value(value: RslValue):
    """Integer content of a value, or None when it has none."""
    if isinstance(value, Integer):
        return value.value
    if isinstance(value, Text) and _INT_RE.match(value.text):
        return int(value.text)
    return None


def value_text(value: RslValue) -> str:
    if isinstance(value, Integer):
        return str(value.value)
    if isinstance(value, Text):
        return value.text
    return value.name  # type: ignore[union-attr]


@dataclass(frozen=True)
class RslAssertion:
    attribute: str
    relation: Relation
    value: RslValue

    def __post_init__(self):
        if self.relation.is_ordering and is_special(self.value):
            raise OrderingOnSpecial(self.attribute, self.relation)

    def render(self) -> str:
        return f"({self.attribute} {self.relation.symbol} {_render_value(self.value)})"


@dataclass(frozen=True)
class RslConjunction:
    assertions: tuple[RslAssertion, ...]


_WS = " \t\r\n"
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REL_SYMBOLS = ("!=", "<=", ">=", "=", "<", ">")
_REL_BY_SYMBOL = {r.value: r for r in Relation}
# stops a bare value token
_BARE_STOP = set(_WS) | {"(", ")", '"'}
# one clause with a bare value, and the white space after it, read as the
# step-by-step reader below reads it (which is why '<' and '>' may not give
# back the '=' of '<=' and '>='); what it does not match goes through that
# reader, which reports the error
_CLAUSE_RE = re.compile(
    r'\([ \t\r\n]*([A-Za-z][A-Za-z0-9_]*)[ \t\r\n]*(!=|<=|>=|=|<(?!=)|>(?!=))[ \t\r\n]*'
    r'([^ \t\r\n()"]+)[ \t\r\n]*\)[ \t\r\n]*')


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in _WS:
        pos += 1
    return pos


def _read_relation(text: str, pos: int):
    for sym in _REL_SYMBOLS:
        if text.startswith(sym, pos):
            return _REL_BY_SYMBOL[sym], pos + len(sym)
    raise RslSyntaxError(pos, "relation operator", text[pos : pos + 1])


def _read_value(text: str, pos: int):
    if pos >= len(text):
        raise RslSyntaxError(pos, "value")
    if text[pos] == '"':
        out = []
        i = pos + 1
        while i < len(text):
            c = text[i]
            if c == "\\" and i + 1 < len(text):
                out.append(text[i + 1])
                i += 2
                continue
            if c == '"':
                return Text("".join(out)), i + 1
            out.append(c)
            i += 1
        raise RslSyntaxError(pos, "closing '\"'")
    i = pos
    while i < len(text) and text[i] not in _BARE_STOP:
        i += 1
    token = text[pos:i]
    if not token:
        raise RslSyntaxError(pos, "value", text[pos : pos + 1])
    return _bare_value(token), i


def _bare_value(token: str) -> RslValue:
    if _INT_RE.match(token):
        return Integer(int(token))
    if token == "NULL":
        return NULL
    if token == "SELF":
        return SELF
    return Text(token)


def parse_rsl(text: str) -> RslConjunction:
    """Parse a single RSL conjunction.

    Raises RslSyntaxError with the character offset of the problem, or
    OrderingOnSpecial when an ordering relation targets NULL/SELF.
    """
    pos = _skip_ws(text, 0)
    if pos >= len(text):
        raise RslSyntaxError(pos, "'&' or '('")
    if text[pos] == "&":
        pos = _skip_ws(text, pos + 1)
    assertions = []
    while True:
        clause = _CLAUSE_RE.match(text, pos)
        if clause:  # the common, well-formed case in one step
            name, symbol, token = clause.groups()
            assertions.append(
                RslAssertion(name.lower(), _REL_BY_SYMBOL[symbol], _bare_value(token)))
            pos = clause.end()
            continue
        if pos >= len(text):
            if assertions:
                break
            raise RslSyntaxError(pos, "'('")
        if text[pos] != "(":
            raise RslSyntaxError(pos, "'('", text[pos])
        pos = _skip_ws(text, pos + 1)
        m = _IDENT_RE.match(text, pos)
        if not m:
            raise RslSyntaxError(pos, "attribute name", text[pos : pos + 1])
        attribute = m.group(0).lower()
        pos = _skip_ws(text, m.end())
        relation, pos = _read_relation(text, pos)
        pos = _skip_ws(text, pos)
        value, pos = _read_value(text, pos)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise RslSyntaxError(pos, "')'", text[pos : pos + 1])
        assertions.append(RslAssertion(attribute, relation, value))
        pos = _skip_ws(text, pos + 1)
    return RslConjunction(tuple(assertions))


_QUOTE_NEEDED = re.compile(r'[\s()"\\]')


def _render_value(value: RslValue) -> str:
    if isinstance(value, Integer):
        return str(value.value)
    if is_special(value):
        return value.name  # type: ignore[union-attr]
    t = value.text  # type: ignore[union-attr]
    if t and not _QUOTE_NEEDED.search(t) and not _INT_RE.match(t) and t not in ("NULL", "SELF"):
        return t
    escaped = t.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_rsl(conj: RslConjunction) -> str:
    """Canonical text form; parse_rsl(render_rsl(c)) is structurally c."""
    return "&" + "".join(a.render() for a in conj.assertions)


class JobDescription:
    """Insertion-ordered multimap view of an equality-only request."""

    def __init__(self, items=()):
        self._attrs: dict[str, tuple[RslValue, ...]] = {}
        for name, values in items:
            self._attrs[name] = tuple(values)

    def get(self, name: str):
        return self._attrs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def names(self):
        return list(self._attrs)

    def items(self):
        return list(self._attrs.items())

    def __eq__(self, other):
        return isinstance(other, JobDescription) and self._attrs == other._attrs

    def __repr__(self):
        return f"JobDescription({list(self._attrs.items())!r})"


def to_job_description(conj: RslConjunction) -> JobDescription:
    """Collapse an all-equality conjunction into an attribute multimap."""
    attrs: dict[str, list[RslValue]] = {}
    for a in conj.assertions:
        if is_special(a.value):
            raise SpecialValueInRequest(a.attribute)
        if a.relation is not Relation.EQ:
            raise NonEqualityInRequest(a.attribute)
        attrs.setdefault(a.attribute, []).append(a.value)
    return JobDescription((name, tuple(vals)) for name, vals in attrs.items())


def apply_defaults(jd: JobDescription) -> JobDescription:
    """Insert count=1 when absent so relational policy on count is decidable."""
    if "count" in jd:
        return jd
    items = jd.items() + [("count", (Integer(1),))]
    return JobDescription(items)


def description_to_rsl(jd: JobDescription) -> str:
    assertions = []
    for name, values in jd.items():
        for v in values:
            assertions.append(RslAssertion(name, Relation.EQ, v))
    return render_rsl(RslConjunction(tuple(assertions)))
