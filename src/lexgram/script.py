"""The feature-extraction script and its factorized templates.

One script drives every table of a corpus.  A rule line reads

    TABLES : "feature id" => ACTION "template" [, "template" ...]

where TABLES is ``*`` or a comma-separated list of table ids, and ACTION is
one of ``construction``, ``paraphrase``, ``substructure(STRUCTURE)``,
``transformation`` (optional structure argument) or ``intensifier``.
``#`` starts a comment; a trailing backslash continues the line.

Templates mix literal tokens, ``@Column@`` / ``@<ENT>Column@`` placeholders,
symbolic tokens resolved by the realizer (``Ddef``, ``Poss2``, ...) and
non-nested alternation groups ``(a + b)``; a standalone ``E`` inside a group
is the empty alternative.  A parsed template is one tuple of ``(kind, text)``
parts, the form the realizer walks.
"""

from __future__ import annotations

import enum
import itertools
import re
from functools import cached_property
from typing import Any

from .errors import ScriptSyntaxError
from .files import read_text
from .model import FrozenFields
from .tables import ENT_PREFIX, parse_structure_label

# Tokens passed through to the realizer's symbol policy instead of being
# treated as plain literals.
SYMBOLIC_TOKENS = frozenset({"Poss2", "Ddef", "N", "Nhum"})


# =============================================================================
# template model
# =============================================================================

# A template is a tuple of parts, each a (kind, text) pair: a literal's
# token, a symbolic token, the name a ``COMPONENT`` (``@<ENT>X@``) or
# ``COLUMN`` (``@X@``) placeholder looks up, or a ``GROUP``'s alternatives,
# each a (possibly empty) tuple of non-group parts.
LITERAL, SYMBOL, COMPONENT, COLUMN, GROUP = range(5)


def part_text(kind: int, text) -> str:
    """One part as a template spells it."""
    if kind == COMPONENT:
        return f"@{ENT_PREFIX}{text}@"
    if kind == COLUMN:
        return f"@{text}@"
    if kind == GROUP:
        alts = (" ".join(part_text(*part) for part in alt) if alt else "E" for alt in text)
        return "(" + " + ".join(alts) + ")"
    return text


class Template(FrozenFields):
    """A template, factorized (may contain groups) or flat (no groups).

    Its text and its flat templates are worked out on first use and kept.
    """

    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, Any], ...]):
        object.__setattr__(self, "parts", parts)

    @cached_property
    def text(self) -> str:
        return " ".join(part_text(kind, text) for kind, text in self.parts)

    @cached_property
    def flats(self) -> tuple[Template, ...]:
        """What :func:`expand_alternation` gives, worked out once: a
        wildcard rule's templates serve every table.  A template with no
        group keeps an equal copy of itself, not itself, which would make
        it a reference cycle that only the cyclic collector frees."""
        return tuple(Template(self.parts) if flat is self else flat for flat in expand_alternation(self))


_SPECIAL = set("@()+")


def parse_template(source: str) -> Template:
    """Tokenize a template string into parts, validating grouping and markers."""
    parts: list[tuple[int, Any]] = []
    group_alts: list[tuple] | None = None  # None = not inside a group
    current = parts

    def close_alternative():
        nonlocal current
        assert group_alts is not None
        alt = tuple(current)
        # a lone E inside a group is the empty alternative
        group_alts.append(() if alt == ((LITERAL, "E"),) else alt)
        current = []

    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif ch == "@":
            end = source.find("@", i + 1)
            if end < 0:
                raise ScriptSyntaxError(f"unterminated placeholder in {source!r}")
            name = source[i + 1:end].strip()
            if not name:
                raise ScriptSyntaxError(f"empty placeholder in {source!r}")
            if name.startswith(ENT_PREFIX):
                current.append((COMPONENT, name[len(ENT_PREFIX):].strip()))
            else:
                current.append((COLUMN, name))
            i = end + 1
        elif ch == "(":
            if group_alts is not None:
                raise ScriptSyntaxError(f"nested alternation in {source!r}")
            group_alts = []
            current = []
            i += 1
        elif ch == "+":
            if group_alts is None:
                current.append((LITERAL, "+"))
            else:
                close_alternative()
            i += 1
        elif ch == ")":
            if group_alts is None:
                raise ScriptSyntaxError(f"unmatched ')' in {source!r}")
            close_alternative()
            parts.append((GROUP, tuple(group_alts)))
            group_alts = None
            current = parts
            i += 1
        else:
            j = i
            while j < n and not source[j].isspace() and source[j] not in _SPECIAL:
                j += 1
            word = source[i:j]
            current.append((SYMBOL if word in SYMBOLIC_TOKENS else LITERAL, word))
            i = j
    if group_alts is not None:
        raise ScriptSyntaxError(f"unterminated '(' in {source!r}")
    return Template(tuple(parts))


def expand_alternation(template: Template) -> list[Template]:
    """Flatten alternation groups into the cartesian product of alternatives.

    Output order is lexicographic over group alternative order, leftmost
    group most significant; output size is the product of the group sizes.
    """
    groups = [alts for kind, alts in template.parts if kind == GROUP]
    if not groups:
        return [template]
    flats: list[Template] = []
    for combo in itertools.product(*groups):
        chosen = iter(combo)
        parts: list[tuple[int, Any]] = []
        for part in template.parts:
            if part[0] == GROUP:
                parts.extend(next(chosen))
            else:
                parts.append(part)
        flats.append(Template(tuple(parts)))
    return flats


# =============================================================================
# rules
# =============================================================================

class Action(enum.Enum):
    CONSTRUCTION = "construction"
    PARAPHRASE = "paraphrase"
    SUBSTRUCTURE = "substructure"
    TRANSFORMATION = "transformation"
    INTENSIFIER = "intensifier"


_LABELLED = {Action.SUBSTRUCTURE, Action.TRANSFORMATION}


class ScriptRule(FrozenFields):
    __match_args__ = ("feature_id", "tables", "action", "label", "templates", "line")

    def __init__(
        self,
        feature_id: str,
        tables: frozenset[str] | None,  # None = wildcard
        action: Action,
        label: str | None,
        templates: tuple[Template, ...],
        line: int = 0,
    ):
        object.__setattr__(self, "feature_id", feature_id)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "templates", templates)
        object.__setattr__(self, "line", line)


class ExtractionScript(FrozenFields):
    __match_args__ = ("rules",)

    def __init__(self, rules: tuple[ScriptRule, ...]):
        object.__setattr__(self, "rules", rules)

    @cached_property
    def _rules_by_table(self) -> tuple[list[tuple[int, ScriptRule]], dict[str, list[tuple[int, ScriptRule]]]]:
        """The wildcard rules, and the rules naming each table, each rule
        with its position in ``rules``."""
        wildcard: list[tuple[int, ScriptRule]] = []
        named: dict[str, list[tuple[int, ScriptRule]]] = {}
        for position, rule in enumerate(self.rules):
            if rule.tables is None:
                wildcard.append((position, rule))
            else:
                for table_id in rule.tables:
                    named.setdefault(table_id, []).append((position, rule))
        return wildcard, named

    def effective_rules(self, table_id: str, action: Action | None = None) -> list[ScriptRule]:
        """One rule per feature id, in declaration order: a rule naming the
        table explicitly takes precedence over a wildcard rule, and among
        rules of equal precedence the first declared wins."""
        wildcard, named = self._rules_by_table
        # positions are unique, so the pairs sort by position alone
        applicable = sorted(wildcard + named.get(table_id, []))
        chosen: dict[str, ScriptRule] = {}
        for _, rule in applicable:
            prev = chosen.get(rule.feature_id)
            if prev is None or (prev.tables is None and rule.tables is not None):
                chosen[rule.feature_id] = rule
        ordered = sorted(chosen.values(), key=lambda r: r.line)
        if action is None:
            return ordered
        return [r for r in ordered if r.action is action]


def _strip_comment(line: str) -> str:
    # '#' starts a comment unless it appears inside a quoted template
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


_RULE_RE = re.compile(r'^(?P<tables>[^:"]+?)\s*:\s*"(?P<feature>[^"]+)"\s*=>\s*(?P<rest>.+)$')
_ACTION_RE = re.compile(r"^(?P<action>[a-z]+)\s*(?:\((?P<label>[^()]*)\))?\s*(?P<templates>.*)$", re.S)
_TEMPLATE_LIST_RE = re.compile(r'^\s*(?:"[^"]*"\s*(?:,\s*"[^"]*"\s*)*)?$')


def parse_script(text: str, source: str | None = None) -> ExtractionScript:
    rules: list[ScriptRule] = []
    seen: set[tuple[str, str]] = set()

    # join continuation lines, remembering where each logical line started
    logical: list[tuple[int, str]] = []
    pending: str | None = None
    pending_line = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).rstrip()
        if pending is not None:
            line = pending + " " + line.strip()
            lineno = pending_line
            pending = None
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            pending_line = lineno
            continue
        if line.strip():
            logical.append((lineno, line.strip()))
    if pending is not None:
        raise ScriptSyntaxError("dangling line continuation", source, pending_line)

    for lineno, line in logical:
        m = _RULE_RE.match(line)
        if not m:
            raise ScriptSyntaxError(f"cannot parse rule: {line!r}", source, lineno)
        tables_field = m.group("tables").strip()
        tables = None if tables_field == "*" else frozenset(
            t.strip() for t in tables_field.split(",") if t.strip()
        )
        if tables is not None and not tables:
            raise ScriptSyntaxError("empty table list", source, lineno)
        feature_id = m.group("feature").strip()

        am = _ACTION_RE.match(m.group("rest").strip())
        if not am:
            raise ScriptSyntaxError(f"cannot parse action: {m.group('rest')!r}", source, lineno)
        try:
            action = Action(am.group("action"))
        except ValueError:
            raise ScriptSyntaxError(f"unknown action {am.group('action')!r}", source, lineno) from None
        label = am.group("label")
        if label is not None:
            label = label.strip()
        if action is Action.SUBSTRUCTURE:
            if not label:
                raise ScriptSyntaxError("substructure requires a structure argument", source, lineno)
            parse_structure_label(label, source, lineno)
        if label is not None and action not in _LABELLED:
            raise ScriptSyntaxError(f"{action.value} takes no structure argument", source, lineno)

        template_field = am.group("templates")
        if not _TEMPLATE_LIST_RE.match(template_field):
            raise ScriptSyntaxError(f"malformed template list: {template_field!r}", source, lineno)
        try:
            templates = tuple(
                parse_template(t) for t in re.findall(r'"([^"]*)"', template_field)
            )
        except ScriptSyntaxError as err:
            raise ScriptSyntaxError(err.bare_message, source, lineno) from None
        if action is not Action.CONSTRUCTION and not templates:
            raise ScriptSyntaxError(f"{action.value} requires at least one template", source, lineno)

        key = (tables_field, feature_id)
        if key in seen:
            raise ScriptSyntaxError(f"duplicate rule for {feature_id!r} on {tables_field!r}", source, lineno)
        seen.add(key)
        rules.append(ScriptRule(feature_id, tables, action, label, templates, lineno))

    return ExtractionScript(tuple(rules))


def load_script(path) -> ExtractionScript:
    return parse_script(read_text(path), source=str(path))
