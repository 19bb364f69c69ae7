"""Command line driver.

Batch subcommands over the lexicon artifacts:

    compile   tables + class matrix + script -> base lexicon
    extend    base lexicon -> extended lexicon (+ record sidecar, stats)
    validate  lexicon -> review queue
    stats     lexicon + record sidecar -> recomputed statistics
    export    lexicon -> text or XML on stdout or file
    import    lexicon -> schema check, optional format conversion

Exit codes: 0 success, 1 input, usage or output error (a stdout that
cannot be written among them), 2 internal invariant violation.  All
outputs are byte-deterministic for identical inputs.

Run as the program (``main()`` with no arguments: the ``lexgram`` script,
``python -m lexgram.cli``), a command ends its process with ``os._exit``
once its output files are closed and stdout and stderr are flushed, so
CPython neither frees what the command built one object at a time nor
tears down its modules.  ``cli(argv)`` and ``main(argv)`` return the exit
code instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from pathlib import Path

from .curation import curate, review_report
from .errors import InternalInvariantError, LexgramError
from .expansion import ALL_PASSES, parse_passes, run_pipeline
from .files import parse_file, read_text, writing
from .formats import (
    LexiconDocument,
    export_lexicon,
    export_records,
    load_lexicon,
    parse_records,
    save_lexicon,
)
from .lexicon import generate_base
from .model import check_table_id
from .realizer import DEFAULT_RULES, DEFAULT_SYMBOLS, load_morpho_rules, load_symbols
from .script import parse_script
from .stats import recompute_stats, render_stats
from .tables import load_class_matrix, load_table, resolve_features, validate_table


# =============================================================================
# subcommands
# =============================================================================

def cmd_compile(args: argparse.Namespace) -> int:
    try:
        args.category.encode("utf-8")
    except UnicodeEncodeError:  # argv bytes that are not UTF-8 decode to lone surrogates
        raise LexgramError(f"--category {args.category!r} is not valid UTF-8") from None
    script_text = read_text(args.script)
    script = parse_script(script_text, source=str(args.script))
    matrix = load_class_matrix(args.classes)
    morpho = DEFAULT_RULES if args.morpho is None else load_morpho_rules(args.morpho)
    symbols = DEFAULT_SYMBOLS if args.symbols is None else load_symbols(args.symbols)

    tables = sorted((load_table(p) for p in args.tables), key=lambda t: t.table_id)
    seen: set[str] = set()
    entries = []
    for table in tables:
        if table.table_id in seen:
            raise LexgramError(f"duplicate table id {table.table_id!r}")
        check_table_id(table.table_id)  # before the class matrix is asked for the id
        seen.add(table.table_id)
        table = resolve_features(table, matrix)
        for issue in validate_table(table):
            _report(f"warning: {issue.kind.value}\t{issue.entry_id}\t{issue.detail}")
        entries.extend(generate_base(table, script, args.category, symbols, morpho))

    doc = LexiconDocument(entries, tuple(t.table_id for t in tables), script_text)
    save_lexicon(doc, args.output, args.format)
    print(f"compiled {len(entries)} entries from {len(tables)} tables -> {args.output}")
    return _finished(args, 0)


def cmd_extend(args: argparse.Namespace) -> int:
    if args.records and _same_file(args.records, args.output):
        raise LexgramError(f"--records and -o name the same file: {args.records}")
    doc = load_lexicon(args.lexicon)
    passes = ALL_PASSES if args.passes is None else parse_passes(args.passes)
    result = run_pipeline(
        doc.entries,
        parse_script(doc.script_source, source="<embedded script>"),
        passes,
        DEFAULT_SYMBOLS if args.symbols is None else load_symbols(args.symbols),
        DEFAULT_RULES if args.morpho is None else load_morpho_rules(args.morpho),
    )
    # The sidecar is written first but replaces its file last, after the
    # lexicon has replaced its target, so a refused or failed write of
    # either file replaces neither.
    with contextlib.ExitStack() as stack:
        if args.records:
            export_records(result.records, stack.enter_context(writing(args.records)))
        extended = LexiconDocument(result.entries, doc.table_ids, doc.script_source)
        save_lexicon(extended, args.output, args.format)
    sys.stdout.write(render_stats(result.stats))
    return _finished(args, 0)


def _same_file(first: str, second: str) -> bool:
    """Whether two paths resolve alike or, when both exist, are one file."""
    try:
        return Path(first).resolve() == Path(second).resolve() or os.path.samefile(first, second)
    except OSError:  # one of them does not exist
        return False


def cmd_validate(args: argparse.Namespace) -> int:
    doc = load_lexicon(args.lexicon)
    _, duplicates, issues = curate(doc.entries)
    report = review_report(issues, duplicates)
    if args.output:
        with writing(args.output) as out:
            out.write(report)
        print(f"{len(issues)} issues, {len(duplicates)} duplicate groups -> {args.output}")
    else:
        sys.stdout.write(report)
    return _finished(args, 0)


def cmd_stats(args: argparse.Namespace) -> int:
    doc = load_lexicon(args.lexicon)
    rows = parse_file(args.records, parse_records)
    report = recompute_stats(doc.entries, rows, args.lexicon, args.records)
    sys.stdout.write(render_stats(report))
    return _finished(args, 0)


def cmd_export(args: argparse.Namespace) -> int:
    doc = load_lexicon(args.lexicon)
    if args.output:
        save_lexicon(doc, args.output, args.format)
    else:
        # Built whole first, so a refused export writes nothing to stdout.
        sys.stdout.write(export_lexicon(doc, args.format or "text"))
    return _finished(args, 0)


def cmd_import(args: argparse.Namespace) -> int:
    doc = load_lexicon(args.lexicon)
    if args.output:
        save_lexicon(doc, args.output, args.format)
    print(f"{len(doc.entries)} entries from {len(doc.table_ids)} tables, schema ok")
    return _finished(args, 0)


# =============================================================================
# argument parsing
# =============================================================================

class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is reserved here for internal
    invariant violations, so remap usage problems to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="lexgram", description="lexicon-grammar table compiler")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("compile", help="build a base lexicon from tables")
    p.add_argument("tables", nargs="+", metavar="TABLE", help=".lgt table files")
    p.add_argument("--classes", required=True, help="class matrix file (.lgm)")
    p.add_argument("--script", required=True, help="feature extraction script (.lgs)")
    p.add_argument("--category", default="adverb", help="grammatical category label")
    p.add_argument("--morpho", help="contraction/elision rule file")
    p.add_argument("--symbols", help="symbol policy file")
    p.add_argument("--format", choices=("text", "xml"), help="output format (default: by suffix)")
    p.add_argument("-o", "--output", required=True, help="output lexicon path")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("extend", help="run the generation passes over a base lexicon")
    p.add_argument("lexicon", help="base lexicon produced by compile")
    p.add_argument("--passes", help="comma-separated pass list (default: all)")
    p.add_argument("--symbols", help="symbol policy file")
    p.add_argument("--morpho", help="contraction/elision rule file")
    p.add_argument("--records", help="write the expansion record sidecar here")
    p.add_argument("--format", choices=("text", "xml"), help="output format (default: by suffix)")
    p.add_argument("-o", "--output", required=True, help="output lexicon path")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("validate", help="flag suspicious entries and residual duplicates")
    p.add_argument("lexicon")
    p.add_argument("-o", "--output", help="write the review queue here (default: stdout)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="recompute statistics from the record sidecar")
    p.add_argument("lexicon")
    p.add_argument("--records", required=True, help="record sidecar from extend")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="re-serialize a lexicon")
    p.add_argument("lexicon")
    p.add_argument("--format", choices=("text", "xml"), help="output format (default: by suffix; text on stdout)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="check a lexicon file, optionally converting it")
    p.add_argument("lexicon")
    p.add_argument("--format", choices=("text", "xml"), help="output format (default: by suffix)")
    p.add_argument("-o", "--output", help="write the re-serialized lexicon here")
    p.set_defaults(func=cmd_import)

    return parser


def cli(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off.

    A lexicon document is acyclic (slotted classes, tuples, dicts and
    strings), so reference counting frees all of it; the collector would
    only traverse the growing lexicon again and again while it is read or
    built.  The collector's state is restored on the way out, so a caller
    that runs several commands in one process keeps its own policy.
    """
    return _run(argv, end_process=False)


def main(argv: list[str] | None = None) -> int:
    """The program: with no *argv*, run the command ``sys.argv`` names and
    end the process with its exit code (see :func:`_finished`); given
    *argv*, the same as :func:`cli`."""
    return _run(argv, end_process=argv is None)


def _run(argv: list[str] | None, end_process: bool) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_arg_parser()
        args = argparse.Namespace(end_process=end_process)
        try:
            parser.parse_args(argv, namespace=args)
        except SystemExit as exc:
            return _finished(args, exc.code if isinstance(exc.code, int) else 1)
        try:
            return args.func(args)
        except (LexgramError, OSError) as err:
            _report(f"lexgram: error: {err}")
            return _finished(args, 1)
        except InternalInvariantError as err:
            _report(f"lexgram: internal error: {err}")
            return _finished(args, 2)
    finally:
        if enabled:
            gc.enable()


def _finished(args: argparse.Namespace, code: int) -> int:
    """Return *code*; when the command runs as the program, end the process
    with it instead.

    A command calls this as its last statement, and ``_run`` while the
    error it caught holds the command's frame, so what the command built is
    still referenced: ``os._exit`` ends the process before CPython frees
    those objects one at a time and tears down its modules.  Every output
    file is closed by then.  stdout and stderr are flushed here, and a
    stdout that cannot be written is an output error (exit 1).
    """
    if not args.end_process:
        return code
    try:
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
    except OSError as err:
        if code == 0:  # a failed command has reported its own error
            code = 1
            _report(f"lexgram: error: {err}")
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


def _report(message: str) -> None:
    """Print *message*, an error or a warning, on stderr.  Where stderr
    cannot be written, the message is dropped: the exit code alone tells of
    an error, and a warning changes neither the exit code nor the output."""
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
