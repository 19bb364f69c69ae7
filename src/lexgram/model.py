"""The entry model: lexicon entries, their ids, review issues and records.

Every table row becomes exactly one base entry.  An entry is self-contained:
besides its surface it carries the component cells, the auxiliary lexical
cells and all binary feature values of its row, so later processing steps
need the script but not the original table files.  Generated entries name
their parent, pass, rule and template in their provenance.

Issues never remove anything from a lexicon; they flag entries for manual
review.  A record row is one line of the expansion record sidecar.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping

from .errors import LexgramError

# The empty component, in tables and wherever a field stands for empty.
EMPTY_TOKEN = "<E>"

# The cells of every entry that has no component or no aux cell: one
# mapping, shared, that a write cannot change.
EMPTY_CELLS: Mapping[str, str] = MappingProxyType({})


class Origin(enum.Enum):
    BASE = "base"
    PARAPHRASE_DIRECT = "paraphrase-direct"
    PARAPHRASE_CONSTRUCTION = "paraphrase-construction"
    DELETION = "deletion"
    PERMUTATION = "permutation"
    TRANSFORMATION = "transformation"
    INTENSIFICATION = "intensification"

    # Members are singletons and compare by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name in Python code, and
    # the pipeline hashes an origin for every variant it counts.
    __hash__ = object.__hash__


# Canonical pass order; also the order variants appear in the output lexicon.
PASS_ORDER = (
    Origin.PARAPHRASE_DIRECT,
    Origin.PARAPHRASE_CONSTRUCTION,
    Origin.DELETION,
    Origin.PERMUTATION,
    Origin.TRANSFORMATION,
    Origin.INTENSIFICATION,
)

PASS_TAGS = {
    Origin.PARAPHRASE_DIRECT: "para",
    Origin.PARAPHRASE_CONSTRUCTION: "parac",
    Origin.DELETION: "del",
    Origin.PERMUTATION: "perm",
    Origin.TRANSFORMATION: "trans",
    Origin.INTENSIFICATION: "int",
}


def entry_id(table_id: str, row_index: int, tag: str | None = None, ordinal: int | None = None) -> str:
    """Deterministic entry id: ``TABLE#row`` or ``TABLE#row#tag#ordinal``."""
    if row_index < 1:
        raise ValueError("row_index is 1-based")
    if (tag is None) != (ordinal is None):
        raise ValueError("variant tag and ordinal go together")
    if tag is None:
        return f"{table_id}#{row_index}"
    return f"{table_id}#{row_index}#{tag}#{ordinal}"


_TAGS = frozenset(PASS_TAGS.values())


def _is_id_number(text: str) -> bool:
    """A row or an ordinal: ASCII digits, no leading zero."""
    return text.isdigit() and text.isascii() and text[0] != "0"


def parse_entry_id(text: str) -> tuple[str, int, str | None, int | None]:
    """Split an id made by :func:`entry_id` into table, row, tag and ordinal
    (tag and ordinal are None for a base entry); raises ValueError."""
    fields = text.split("#")
    if len(fields) == 2:
        table_id, row = fields
        if table_id and _is_id_number(row):
            return table_id, int(row), None, None
    elif len(fields) == 4:
        table_id, row, tag, ordinal = fields
        if table_id and tag in _TAGS and _is_id_number(row) and _is_id_number(ordinal):
            return table_id, int(row), tag, int(ordinal)
    raise ValueError(f"malformed entry id {text!r} (expected TABLE#row or TABLE#row#tag#ordinal)")


def check_table_id(table_id: str) -> None:
    """Refuse a table id that entry ids cannot carry."""
    if "#" in table_id:
        raise LexgramError(f"table id {table_id!r} contains '#', which entry ids reserve")


class Selection(enum.Enum):
    HUMAN = "human"
    NON_HUMAN = "non-human"
    ANY = "any"
    UNSPECIFIED = "unspecified"

    # As for Origin: the readers hash each loaded entry's arguments.
    __hash__ = object.__hash__


class Fields:
    """Field-wise equality, repr and copies, for a class that names its
    fields in order in ``__match_args__``, as ``dataclasses`` does, and takes
    them in that order in its ``__init__``.  Equality holds between
    instances of one class only, and instances are unhashable.

    Spelling the classes out keeps the ``dataclasses`` module, and the
    ``inspect`` and ``ast`` it imports, out of every command's start-up.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, which a
        # read-only slotted class needs
        return self.__class__, self._values()


class FrozenFields(Fields):
    """:class:`Fields` that are read-only once ``__init__`` has stored them
    through ``object.__setattr__``, and hashed by their values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ArgumentSpec(FrozenFields):
    __slots__ = __match_args__ = ("slot", "selection")

    def __init__(self, slot: str, selection: Selection):
        object.__setattr__(self, "slot", slot)  # N0, N1, N2, Poss0, Poss2
        object.__setattr__(self, "selection", selection)

    # The readers hash and compare every entry's arguments; spelled out,
    # these take a tenth (equality) and under half (hash) of the time of
    # the generic ones on CPython 3.11.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.slot, self.selection) == (other.slot, other.selection)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.slot, self.selection))


class SurfaceForm(Fields):
    """Substituted tokens (pre-contraction) plus the rendered citation form.

    Not frozen, for the reason :class:`LexEntry` is not, but hashable as
    when it was: no code changes a surface once built."""

    __slots__ = __match_args__ = ("tokens", "rendered")

    def __init__(self, tokens: tuple[str, ...], rendered: str):
        self.tokens = tokens
        self.rendered = rendered

    def __hash__(self) -> int:
        return hash((self.tokens, self.rendered))


class Provenance(FrozenFields):
    __slots__ = __match_args__ = ("kind", "parent", "feature_id", "template")

    def __init__(
        self, kind: Origin, parent: str | None = None, feature_id: str | None = None, template: str | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "feature_id", feature_id)
        object.__setattr__(self, "template", template)
        if (kind is Origin.BASE) != (parent is None):
            raise ValueError("base entries have no parent; variants require one")


class LexEntry(Fields):
    """Built once, never changed: entries may share their tuples and dicts."""

    __slots__ = __match_args__ = (
        "entry_id", "table_id", "category", "surface", "components", "aux", "paraphrases",
        "other_structures", "intensified", "arguments", "construction_ids", "internal_structures",
        "binary_features", "provenance", "cross_refs",
    )

    def __init__(
        self,
        entry_id: str,
        table_id: str,
        category: str,
        surface: SurfaceForm,
        components: Mapping[str, str],         # slot symbol -> cell text ("" = empty)
        aux: Mapping[str, str],                # aux column -> cell text ("" = empty)
        paraphrases: tuple[SurfaceForm, ...] = (),
        other_structures: tuple[tuple[str, SurfaceForm], ...] = (),
        intensified: tuple[SurfaceForm, ...] = (),
        arguments: tuple[ArgumentSpec, ...] = (),
        construction_ids: tuple[str, ...] = (),
        internal_structures: tuple[str, ...] = (),
        binary_features: dict[str, bool] | None = None,  # None = a new empty dict
        provenance: Provenance = Provenance(Origin.BASE),  # one instance, shared
        cross_refs: tuple[str, ...] = (),
    ):
        self.entry_id = entry_id
        self.table_id = table_id
        self.category = category
        self.surface = surface
        self.components = components
        self.aux = aux
        self.paraphrases = paraphrases
        self.other_structures = other_structures
        self.intensified = intensified
        self.arguments = arguments
        self.construction_ids = construction_ids
        self.internal_structures = internal_structures
        self.binary_features = {} if binary_features is None else binary_features
        self.provenance = provenance
        self.cross_refs = cross_refs

    @property
    def is_base(self) -> bool:
        return self.provenance.kind is Origin.BASE

    def sort_rank(self) -> tuple:
        """Duplicate-resolution rank: base before generated, then table,
        row, pass and ordinal.  Lower wins."""
        _, row, _, ordinal = parse_entry_id(self.entry_id)
        if self.is_base:
            return (0, self.table_id, row, -1, 0)
        return (1, self.table_id, row, PASS_ORDER.index(self.provenance.kind), ordinal)


class IssueKind(enum.Enum):
    SINGLE_TOKEN_RESIDUE = "single-token-residue"
    AMALGAM_SUSPECT = "amalgam-suspect"
    EMPTY_SURFACE = "empty-surface"
    EMPTY_ENTRY = "empty-entry"
    DUPLICATE_OF_BASE = "duplicate-of-base"
    CROSS_TABLE_DUPLICATE = "cross-table-duplicate"
    AGREEMENT_UNCHECKED = "agreement-unchecked"


class ValidationIssue(FrozenFields):
    __match_args__ = ("kind", "entry_id", "detail")

    def __init__(self, kind: IssueKind, entry_id: str, detail: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entry_id", entry_id)
        object.__setattr__(self, "detail", detail)


class RecordRow(Fields):
    """One sidecar line: a generated entry, or a base entry removed as a
    duplicate (its kind is ``base``), and its fate in curation.  A field
    with no value is ``""``."""

    __slots__ = __match_args__ = (
        "entry_id", "parent_id", "kind", "feature_id", "template", "surface", "status", "duplicate_of",
    )

    def __init__(
        self, entry_id: str, parent_id: str, kind: Origin, feature_id: str, template: str, surface: str,
        status: str, duplicate_of: str,
    ):
        self.entry_id = entry_id
        self.parent_id = parent_id
        self.kind = kind
        self.feature_id = feature_id
        self.template = template
        self.surface = surface
        self.status = status
        self.duplicate_of = duplicate_of
