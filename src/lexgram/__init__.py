"""lexgram: compile lexicon-grammar tables into an extended syntactic lexicon.

The package turns tab-separated grammar tables, a class matrix, and a
feature-extraction script into a structured lexicon of multiword entries,
then mechanically extends it (paraphrases, substructures, transformations,
intensified forms), removes exact duplicates, and flags suspicious output
for manual review.
"""

from .curation import DuplicateRecord, canonical_key, dedup, flag_suspicious, review_report
from .errors import InternalInvariantError, LexgramError
from .expansion import ALL_PASSES, PipelineResult, build_plan, expand_entry, parse_passes, run_pipeline
from .formats import (
    LexiconDocument,
    TOOL_VERSION,
    export_lexicon,
    export_records,
    import_lexicon,
    load_lexicon,
    parse_records,
    save_lexicon,
)
from .lexicon import generate_base
from .model import ArgumentSpec, IssueKind, LexEntry, Origin, Provenance, RecordRow, Selection, SurfaceForm, ValidationIssue
from .realizer import MorphoRules, realize
from .script import Action, ExtractionScript, ScriptRule, Template, load_script, parse_script
from .stats import StatsReport, compute_stats, render_stats
from .tables import ClassMatrix, LgTable, load_class_matrix, load_table, resolve_features

__version__ = TOOL_VERSION

__all__ = [
    "ALL_PASSES",
    "Action",
    "ArgumentSpec",
    "ClassMatrix",
    "DuplicateRecord",
    "ExtractionScript",
    "InternalInvariantError",
    "IssueKind",
    "LexEntry",
    "LexgramError",
    "LexiconDocument",
    "LgTable",
    "MorphoRules",
    "Origin",
    "PipelineResult",
    "Provenance",
    "RecordRow",
    "ScriptRule",
    "Selection",
    "StatsReport",
    "SurfaceForm",
    "Template",
    "ValidationIssue",
    "build_plan",
    "canonical_key",
    "compute_stats",
    "dedup",
    "expand_entry",
    "export_lexicon",
    "export_records",
    "flag_suspicious",
    "generate_base",
    "import_lexicon",
    "load_class_matrix",
    "load_lexicon",
    "load_script",
    "load_table",
    "parse_passes",
    "parse_records",
    "parse_script",
    "realize",
    "render_stats",
    "resolve_features",
    "review_report",
    "run_pipeline",
    "save_lexicon",
    "__version__",
]
