"""The record classes, plain classes on ``model.Fields``.

Equality is field-wise within one class, the read-only classes hash by
their fields and refuse assignment, the others but ``SurfaceForm`` are
unhashable, the slotted ones have no ``__dict__``, and copies and the repr
work for all of them.
"""

from __future__ import annotations

import copy

import pytest

from conftest import fields
from lexgram.curation import DuplicateRecord
from lexgram.expansion import PassConfig, PipelineResult, PlanStep
from lexgram.formats import LexiconDocument
from lexgram.model import (
    ArgumentSpec,
    IssueKind,
    LexEntry,
    Origin,
    Provenance,
    RecordRow,
    Selection,
    SurfaceForm,
    ValidationIssue,
)
from lexgram.realizer import MorphoRules
from lexgram.script import LITERAL, Action, ExtractionScript, ScriptRule, Template
from lexgram.stats import StatsReport
from lexgram.tables import ClassMatrix, FeatureDef, FeatureKind, LgTable, Validity

FROZEN, HASHABLE, MUTABLE = "frozen", "hashable", "mutable"

_SURFACE = SurfaceForm(("de", "nuit"), "de nuit")
_TEMPLATE = Template(((LITERAL, "de"), (LITERAL, "nuit")))
_RULE = ScriptRule("F", None, Action.PARAPHRASE, None, (_TEMPLATE,), 3)
_STATS = StatsReport(1, (), 0, 1)

# class, constructor arguments, the position of a field and another value
# for it, what the class is, and whether it is slotted.  A tuple stands in
# for the mapping field of MorphoRules and StatsReport, so that they hash.
CLASSES = [
    (ArgumentSpec, ("N0", Selection.ANY), 1, Selection.HUMAN, FROZEN, True),
    (SurfaceForm, (("de", "nuit"), "de nuit"), 1, "de jour", HASHABLE, True),
    (Provenance, (Origin.DELETION, "T#1", "F", "de nuit"), 2, "G", FROZEN, True),
    (LexEntry, ("T#1", "T", "adverb", _SURFACE, {"C1": "nuit"}, {"A": "x"}, (_SURFACE,), (("L", _SURFACE),),
                (), (ArgumentSpec("N0", Selection.ANY),), ("c",), ("s",), {"F": True}, Provenance(Origin.BASE),
                ("T#2",)), 12, {"F": False}, MUTABLE, True),
    (ValidationIssue, (IssueKind.EMPTY_SURFACE, "T#1", "detail"), 2, "", FROZEN, False),
    (RecordRow, ("T#1#del#1", "T#1", Origin.DELETION, "F", "t", "nuit", "kept", ""), 6, "duplicate", MUTABLE, True),
    (FeatureDef, ("F", FeatureKind.BINARY), 1, FeatureKind.AUX_LEXICAL, FROZEN, False),
    (LgTable, ("T", (FeatureDef("F", FeatureKind.BINARY),), ("C1",), (("+",),)), 3, (("-",),), MUTABLE, False),
    (ClassMatrix, (("T",), ("F",), {"T": {"F": Validity.ALWAYS_VALID}}), 2, {}, MUTABLE, False),
    (Template, (((LITERAL, "nuit"),),), 0, ((LITERAL, "jour"),), FROZEN, False),
    (ScriptRule, ("F", frozenset({"T"}), Action.PARAPHRASE, None, (_TEMPLATE,), 3), 5, 4, FROZEN, False),
    (ExtractionScript, ((_RULE,),), 0, (), FROZEN, False),
    (MorphoRules, ((("de", "le", "du"),), (), frozenset("ae"), frozenset()), 3, frozenset({"heure"}), FROZEN, False),
    (PassConfig, (frozenset({Origin.DELETION}),), 0, frozenset(), FROZEN, False),
    (PlanStep, (Origin.DELETION, "del", "F", (_TEMPLATE,), "L", ("C1",), ("c",), ("s",)), 4, "M", FROZEN, True),
    (PipelineResult, ([], [], _STATS), 0, [None], MUTABLE, False),
    (DuplicateRecord, ("T#1", ("T#2",), "nuit"), 1, ("T#3",), FROZEN, False),
    (StatsReport, (1, (), 0, 1), 0, 2, FROZEN, False),
    (LexiconDocument, ([], ("T",), "# script"), 2, "", MUTABLE, False),
]


def test_every_record_class_is_in_the_table():
    assert len({cls for cls, *_ in CLASSES}) == len(CLASSES) == 19


@pytest.mark.parametrize("cls, args, position, other, kind, slotted", CLASSES, ids=[c[0].__name__ for c in CLASSES])
def test_record_class(cls, args, position, other, kind, slotted):
    names = [f.name for f in fields(cls)]
    record, same = cls(*args), cls(*args)
    changed = cls(*args[:position], other, *args[position + 1:])

    assert record == same and not record != same
    assert record != changed and getattr(changed, names[position]) == other
    assert record != args  # one class only

    if kind == MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)

    if kind == FROZEN:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(changed, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == same

    assert hasattr(record, "__dict__") is not slotted

    for copied in (copy.copy(record), copy.deepcopy(record)):
        assert copied == record and copied is not record
        assert type(copied) is cls

    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in names)


def test_an_entry_has_its_own_features_and_the_shared_base_provenance():
    first = LexEntry("T#1", "T", "adverb", _SURFACE, {}, {})
    second = LexEntry("T#2", "T", "adverb", _SURFACE, {}, {})
    assert first.binary_features == {} and first.binary_features is not second.binary_features
    assert first.provenance is second.provenance == Provenance(Origin.BASE)


def test_a_table_index_is_not_a_field():
    table = LgTable(*CLASSES[7][1])
    assert table.cell(table.rows[0], "F") == "+"
    assert "_index" not in repr(table)
    assert copy.copy(table).cell(table.rows[0], "F") == "+"
