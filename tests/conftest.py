from __future__ import annotations

import inspect
import io
from pathlib import Path

import pytest
from hypothesis import settings

from lexgram import LexiconDocument, generate_base, load_class_matrix, load_table, resolve_features
from lexgram.realizer import MorphoRules, load_morpho_rules
from lexgram.script import ExtractionScript, load_script

# Property tests draw the same examples on every run, and a bounded number
# of them, so a failure reproduces and the suite stays fast.  The deep
# profile (``--hypothesis-profile=lexgram-deep``) draws new examples on each
# run, and twenty times as many.
settings.register_profile("lexgram", derandomize=True, deadline=None, max_examples=100, database=None)
settings.register_profile("lexgram-deep", derandomize=False, deadline=None, max_examples=2000, database=None)
settings.load_profile("lexgram")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TABLE_IDS = ("ADVMP", "ADVMS", "ADVPF", "ADVPS", "PAC", "PC", "PCA", "PCDC", "PCDN")


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture_script() -> ExtractionScript:
    return load_script(fixture_path("extract.lgs"))


def load_fixture_morpho() -> MorphoRules:
    return load_morpho_rules(fixture_path("morpho.rules"))


def compile_corpus(directory: Path = FIXTURES, table_ids: tuple[str, ...] = TABLE_IDS) -> LexiconDocument:
    """Build the base lexicon from a corpus directory (the bundled one by
    default), one entry per row, with the bundled morpho rules."""
    script = load_script(directory / "extract.lgs")
    matrix = load_class_matrix(directory / "classes.lgm")
    morpho = load_fixture_morpho()
    entries = []
    for table_id in table_ids:
        table = resolve_features(load_table(directory / (table_id + ".lgt")), matrix)
        entries.extend(generate_base(table, script, rules=morpho))
    return LexiconDocument(
        entries=entries,
        table_ids=table_ids,
        script_source=(directory / "extract.lgs").read_text(encoding="utf-8"),
    )


def fields(cls: type) -> tuple[inspect.Parameter, ...]:
    """The fields of a lexgram record class: its constructor's parameters,
    in order, each with its ``name`` and ``default``."""
    return tuple(inspect.signature(cls).parameters.values())


def written(export, *args) -> str:
    """What an exporter writing to a stream (``export_records``,
    ``export_text``, ``export_xml``) writes, as a string."""
    out = io.StringIO()
    export(*args, out)
    return out.getvalue()


@pytest.fixture()
def corpus_doc() -> LexiconDocument:
    return compile_corpus()
