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
import operator
import re
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


def entry_id(table_id: str, row: int) -> str:
    """A base entry's id: its table's id and its 1-based row."""
    return f"{table_id}#{row}"


def variant_id(parent_id: str, kind: Origin, ordinal: int) -> str:
    """A variant's id: its parent's, a base id of the variant's table, then
    its pass's tag and its 1-based ordinal in that pass."""
    return f"{parent_id}#{PASS_TAGS[kind]}#{ordinal}"


# The grammar of the ids the two make: a table id holds no '#', and a row
# or an ordinal has no leading zero.
ENTRY_ID = re.compile(r"([^#]+)#([1-9][0-9]*)(?:#(" + "|".join(PASS_TAGS.values()) + r")#([1-9][0-9]*))?")


def split_entry_id(text: str) -> tuple[str, str | None, str | None]:
    """What an entry id says of its entry: its table, its pass's tag and its
    parent (tag and parent None for a base entry).  Raises ValueError for a
    string that is no entry id."""
    match = ENTRY_ID.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed entry id {text!r} (expected TABLE#row or TABLE#row#tag#ordinal)")
    tag = match[3]
    return match[1], tag, tag and text[:match.end(2)]


def check_entry_id(entry: LexEntry) -> None:
    """Refuse, with a ValueError, an id that does not say its entry's table,
    pass and parent: the one rule for the ids of every lexicon."""
    table_id, tag, parent = split_entry_id(entry.entry_id)
    kind, parent_id = entry.provenance.kind, entry.provenance.parent
    if table_id != entry.table_id or tag != PASS_TAGS.get(kind):
        raise ValueError(
            f"entry id {entry.entry_id!r} does not match its table {entry.table_id!r} and provenance {kind.value!r}"
        )
    if parent != parent_id:
        raise ValueError(f"entry id {entry.entry_id!r} does not spell its parent {parent_id!r}")


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
    :meth:`replace` is the one way to rebuild a record with new values.

    Spelling the classes out keeps the ``dataclasses`` module, and the
    ``inspect`` and ``ast`` it imports, out of every command's start-up.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # _values, the fields' values in order, is read by one getter per
        # class; attrgetter of a single name returns the bare value.
        names = cls.__match_args__
        if len(names) == 1:
            get = operator.attrgetter(*names)
            cls._values = property(lambda self: (get(self),))
        elif names:
            cls._values = property(operator.attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """A new record of this class, built through its constructor from
        *changes* and the other fields' values.  An unknown field name
        raises TypeError."""
        values = [changes.pop(name) if name in changes else getattr(self, name) for name in self.__match_args__]
        if changes:
            raise TypeError(f"{self.__class__.__qualname__} has no field {', '.join(map(repr, changes))}")
        return self.__class__(*values)

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, which a
        # read-only slotted class needs
        return self.__class__, self._values


class FrozenFields(Fields):
    """:class:`Fields` that are read-only once ``__init__`` has stored them
    through ``object.__setattr__``, and hashed by their values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values)

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
        match = ENTRY_ID.fullmatch(self.entry_id)  # as split_entry_id parses it
        if self.is_base:
            return (0, self.table_id, int(match[2]), -1, 0)
        return (1, self.table_id, int(match[2]), PASS_ORDER.index(self.provenance.kind), int(match[4]))


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


def record_row(entry: LexEntry, kept: str = "") -> RecordRow:
    """The record row of *entry*, a duplicate of *kept* if given: the row
    ``extend`` writes, and the row ``stats`` expects of a kept entry."""
    p = entry.provenance
    return RecordRow(
        entry.entry_id, p.parent or "", p.kind, p.feature_id or "", p.template or "",
        entry.surface.rendered, "duplicate" if kept else "kept", kept,
    )
