"""The benchmark's span tracer finds every function it traces.

``bench/spans.py`` wraps ``lexgram`` functions by module and name.  A rename
or a changed call path there would not fail the benchmark: the layer would
just read zero.  These tests load the tracer read-only (no bytecode is
written next to it) and check its names against the package.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, TABLE_IDS
from lexgram.cli import cli

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_traced_name_resolves(spans):
    traced = set()
    for module_name, attr in spans.TRACED:
        module = importlib.import_module(f"lexgram.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            function = vars(getattr(module, cls_name)).get(method)
        else:
            function = getattr(module, attr, None)
        assert callable(function), f"lexgram.{module_name}.{attr}"
        # A span around a generator function times only the generator's
        # creation, so its layer would read about zero.
        assert not inspect.isgeneratorfunction(function), f"lexgram.{module_name}.{attr}"
        traced.add(attr)
    named = {name for names in spans.SELF_TIMES.values() for name in names}
    assert named | set(spans.CALL_COUNTS.values()) | set(spans.OBSERVERS) <= traced


def test_the_fixture_chain_calls_every_traced_name(spans, tmp_path):
    tables = [str(FIXTURES / f"{table_id}.lgt") for table_id in TABLE_IDS]
    chain = [
        ["compile", *tables, "--classes", str(FIXTURES / "classes.lgm"),
         "--script", str(FIXTURES / "extract.lgs"), "-o", "base.lgx"],
        ["extend", "base.lgx", "--records", "records.tsv", "-o", "full.lgx"],
        ["validate", "full.lgx", "-o", "review.tsv"],
        ["stats", "full.lgx", "--records", "records.tsv"],
        ["export", "full.lgx", "--format", "xml", "-o", "full.lgx.xml"],
        ["import", "full.lgx.xml", "-o", "back.lgx"],
    ]
    tracer = spans.Tracer()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with spans.installed(tracer):
            codes = [cli(args) for args in _in_dir(chain, tmp_path)]
    assert codes == [0] * len(chain)
    uncalled = [attr for _, attr in spans.TRACED if tracer.calls.get(attr, 0) == 0]
    assert uncalled == []
    assert tracer.counts["expansion.variants"] > 0


def _in_dir(chain, directory):
    """The chain's lexicon and sidecar arguments, as paths under ``directory``."""
    for args in chain:
        yield [str(directory / a) if a.endswith((".lgx", ".tsv", ".xml")) else a for a in args]
