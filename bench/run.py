#!/usr/bin/env python3
"""Paper-scale benchmark of the lexgram CLI chain.

Usage (from the root of a checkout):

    python3 bench/run.py --workload adverbs-paper --seed 1 --seconds 30 --trace 0

Each workload's inputs are generated from ``--seed`` (see ``corpus.py``),
then its chain of ``lexgram`` subcommands runs as users run it: one process
per step, default settings.  Chains repeat until ``--seconds`` is spent;
timings are medians over the repetitions.  Outputs are checked after the
timed region (oracle surfaces, stats identity, byte identity across
repetitions, XML round trip) and every failed check counts as a failed step.

Process times are CPU seconds (user + system, from ``os.wait4``) scaled
by a speed probe.  On a shared virtual machine a core runs slower or faster
by up to half, within seconds, as other tenants load the host; CPU and wall
time both follow.  So the benchmark pins itself and the CLI processes to
one core, samples a fixed pure-Python task there every 20 ms while they run
(``probe.py``), and reports each process's CPU time multiplied by
``probe.REF_S`` over the task's mean time during that process.  Raw CPU and
wall times are kept in the run context.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: per-step scaled CPU time and peak RSS of the untraced chain,
then self times and counts of the same chain run in process with the
tracer of ``spans.py`` around each module's public functions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

sys.dont_write_bytecode = True  # import the tests' oracle without writing into tests/
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("adverbs-paper", "adverbs-convert", "synthetic-wide")
MIN_REPS = 3
SETUP_PER_REP = 3  # set-up samples taken before each chain
TRACE_SHARE = 0.4  # share of a --trace 1 run spent on the untraced subprocess chain
KILL_AFTER_S = 150  # a CLI process still running this long after the start is killed
ENTRY_POINT = "from lexgram.cli import main; raise SystemExit(main())"
TEXT_STEPS = ("compile", "extend", "validate", "stats")
CONVERT_STEPS = ("export", "import")


class Step:
    """One CLI call: arguments (relative to the work directory) and the files
    it writes.  Standard output is kept as an output too."""

    def __init__(self, name: str, args: list[str], outputs: tuple[str, ...]) -> None:
        self.name = name
        self.args = [name, *args]
        self.outputs = outputs


def text_chain(tables: list[Path]) -> list[Step]:
    return [
        Step("compile", [*(p.name for p in tables), "--classes", "classes.lgm",
                         "--script", "extract.lgs", "-o", "base.lgx"], ("base.lgx",)),
        Step("extend", ["base.lgx", "--records", "records.tsv", "-o", "full.lgx"],
             ("full.lgx", "records.tsv")),
        Step("validate", ["full.lgx", "-o", "review.tsv"], ("review.tsv",)),
        Step("stats", ["full.lgx", "--records", "records.tsv"], ()),
    ]


def convert_chain() -> list[Step]:
    return [
        Step("export", ["full.lgx", "--format", "xml", "-o", "full.lgx.xml"], ("full.lgx.xml",)),
        Step("import", ["full.lgx.xml", "-o", "roundtrip.lgx"], ("roundtrip.lgx",)),
    ]


# =============================================================================
# running the CLI
# =============================================================================

class Runner:
    def __init__(self, work: Path, kill_at: float) -> None:
        self.work = work
        self.kill_at = kill_at  # time.monotonic() value
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def process(self, argv: list[str], stdout_name: str) -> dict:
        """Run one interpreter process; returns its exit code, start and end
        (``time.perf_counter``), wall and CPU seconds and peak RSS (MiB)."""
        with open(self.work / stdout_name, "wb") as out, open(self.work / (stdout_name + ".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(0.0, self.kill_at - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        return {"code": os.waitstatus_to_exitcode(status), "start": start, "end": end, "wall_s": end - start,
                "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}

    def step(self, step: Step) -> dict:
        run = self.process(["-c", ENTRY_POINT, *step.args], f"{step.name}.out")
        return {"step": step.name, **run, "digests": self.digests(step)}

    def digests(self, step: Step) -> dict[str, str]:
        names = (*step.outputs, f"{step.name}.out")
        return {name: sha256(self.work / name) for name in names if (self.work / name).exists()}

    def chain(self, steps: list[Step]) -> list[dict]:
        return [self.step(step) for step in steps]

    def setup_time(self) -> dict:
        """Times of a CLI process that imports lexgram.cli and exits."""
        run = self.process(["-c", "import lexgram.cli"], "setup.out")
        if run["code"] != 0:
            raise SystemExit(f"bench: importing lexgram.cli failed (exit {run['code']}); see {self.work / 'setup.out.err'}")
        return run


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def repeat_until(deadline: float, run, min_reps: int) -> list:
    """Call ``run`` at least ``min_reps`` times, and again while the next call
    is expected to end before ``deadline`` (a ``time.perf_counter`` value)."""
    results, walls = [], []
    while True:
        start = time.perf_counter()
        results.append(run())
        walls.append(time.perf_counter() - start)
        if len(results) >= min_reps and time.perf_counter() + statistics.median(walls) > deadline:
            return results


# =============================================================================
# correctness checks (outside the timed region)
# =============================================================================

def base_surfaces(lexicon: Path) -> Counter:
    """Rendered surfaces of a text lexicon, read without the package."""
    surfaces = Counter()
    for line in lexicon.read_text(encoding="utf-8").split("\n"):
        if line.startswith("surface\t"):
            rendered = line.split("\t")[1]
            surfaces["" if rendered == "<E>" else rendered] += 1
    return surfaces


def variant_surfaces(records: Path) -> dict[str, Counter]:
    """Per-pass rendered surfaces of every generated variant in the sidecar."""
    variants = {name: Counter() for name in spans.PASS_NAMES}
    for line in records.read_text(encoding="utf-8").split("\n")[1:]:
        if not line:
            continue
        fields = line.split("\t")
        if fields[2] != "base":
            variants[fields[2]]["" if fields[5] == "<E>" else fields[5]] += 1
    return variants


def entry_count(lexicon: Path) -> int:
    """The ``#entries`` header of a text lexicon; 0 when the file or the
    header is missing (the chain's checks then report the failure)."""
    if lexicon.exists():
        with open(lexicon, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#entries\t"):
                    return int(line.split("\t")[1])
    return 0


def check_text_chain(work: Path, tables: list[Path]) -> dict[str, list[str]]:
    """Step name -> failed checks, for the outputs of the last repetition."""
    import oracle  # the brute-force reference expander, shared with the tests

    want_bases, want_variants = oracle.expand_corpus(
        sorted(tables, key=lambda p: p.stem), work / "classes.lgm", work / "extract.lgs",
    )
    problems: dict[str, list[str]] = {}
    try:
        if base_surfaces(work / "base.lgx") != want_bases:
            problems.setdefault("compile", []).append("base surfaces differ from the oracle")
    except OSError as err:
        problems.setdefault("compile", []).append(str(err))
    try:
        got = variant_surfaces(work / "records.tsv")
        for name in spans.PASS_NAMES:
            if got[name] != want_variants[name]:
                problems.setdefault("extend", []).append(f"{name} surfaces differ from the oracle")
    except (OSError, IndexError, KeyError) as err:
        problems.setdefault("extend", []).append(f"unreadable record sidecar: {err!r}")
    if (work / "stats.out").read_bytes() != (work / "extend.out").read_bytes():
        problems.setdefault("stats", []).append("recomputed statistics differ from extend's report")
    return problems


def check_convert_chain(work: Path) -> dict[str, list[str]]:
    if not (work / "roundtrip.lgx").exists() or sha256(work / "roundtrip.lgx") != sha256(work / "full.lgx"):
        return {"import": ["XML round trip is not byte-identical to the input lexicon"]}
    return {}


def score(reps: list[list[dict]], problems: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every step of every repetition.

    A step fails when it exits non-zero, when its outputs differ from the
    first repetition's, or when a check failed on its (identical) outputs.
    """
    attempted = failed = 0
    messages = [f"{step}: {msg}" for step, msgs in problems.items() for msg in msgs]
    reference = {run["step"]: run["digests"] for run in reps[0]}
    for i, rep in enumerate(reps):
        for run in rep:
            attempted += 1
            bad = run["code"] != 0 or run["step"] in problems
            if run["code"] != 0:
                messages.append(f"repetition {i}: {run['step']} exited {run['code']}")
            if run["digests"] != reference[run["step"]]:
                bad = True
                messages.append(f"repetition {i}: {run['step']} outputs differ from repetition 0")
            failed += bad
    return attempted, failed, messages


# =============================================================================
# workloads
# =============================================================================

def prepare(workload: str, seed: int, work: Path, runner: Runner) -> tuple[list[Step], list[Path]]:
    """Write the workload's inputs; returns its timed chain and its tables."""
    if workload == "synthetic-wide":
        tables = corpus.write_wide_corpus(work, seed)
        return text_chain(tables), tables
    tables = corpus.write_paper_corpus(ROOT / "fixtures", work, seed)
    if workload == "adverbs-paper":
        return text_chain(tables), tables
    for step in text_chain(tables)[:2]:  # build full.lgx, untimed
        run = runner.step(step)
        if run["code"] != 0:
            raise SystemExit(f"bench: set-up step {step.name} failed (exit {run['code']})")
    return convert_chain(), tables


def chain_totals(reps: list[list[dict]], key: str) -> list[float]:
    return [sum(run[key] for run in rep) for rep in reps]


def run_inprocess(steps: list[Step], work: Path, tracer: spans.Tracer | None) -> tuple[float, dict[str, str], list[int]]:
    """Run the chain in this process; returns (CPU s, output digests, exit codes)."""
    from lexgram.cli import cli

    codes, digests = [], {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        start = time.process_time()
        for step in steps:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    if tracer is None:
                        codes.append(cli(step.args))
                    else:
                        with spans.installed(tracer):
                            codes.append(tracer.span(f"cli.{step.name}", cli, step.args))
            except Exception:  # an uncaught error is a failed step, as in a CLI process
                traceback.print_exc()
                codes.append(-1)
            digests[f"{step.name}.out"] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            for name in step.outputs:
                digests[name] = sha256(work / name) if (work / name).exists() else "missing"
        cpu = time.process_time() - start
    finally:
        os.chdir(cwd)
    return cpu, digests, codes


def per_layer(steps, reps, work, deadline) -> tuple[dict, int, int, list[str], dict]:
    """The in-process half of a --trace 1 run: (metrics, attempted, failed,
    messages, span summary).  Untraced and traced chains alternate; every
    chain loads its inputs from the files, so no entry is reused."""
    reference = {name: d for rep in reps[:1] for run in rep for name, d in run["digests"].items()}
    untraced, traced, tracers = [], [], []
    attempted = failed = 0
    messages: list[str] = []

    def chain(tracer: spans.Tracer | None) -> float:
        nonlocal attempted, failed
        cpu, digests, codes = run_inprocess(steps, work, tracer)
        attempted += len(steps)
        for step, code in zip(steps, codes):
            names = (*step.outputs, f"{step.name}.out")
            if code != 0 or any(digests[n] != reference.get(n) for n in names):
                failed += 1
                messages.append(f"in-process {step.name}: exit {code} or outputs differ from the CLI's")
        return cpu

    def pair():
        untraced.append(chain(None))
        tracers.append(spans.Tracer())
        traced.append(chain(tracers[-1]))

    chain(None)  # warm-up: the first in-process chain also grows this process's heap
    repeat_until(deadline, pair, 1)
    layers = [spans.layer_metrics(t) for t in tracers]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                failed += 1
                messages.append(f"{name} differs between traced repetitions: {values}")
    metrics["trace.total_s"] = statistics.median(traced)
    metrics["trace.untraced_total_s"] = statistics.median(untraced)
    return metrics, attempted, failed, messages, {"repetitions": len(tracers), **tracers[-1].summary()}


def per_step(reps: list[list[dict]], key: str) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for rep in reps:
        for run in rep:
            samples.setdefault(run["step"], []).append(run[key])
    return samples


def cli_metrics(reps: list[list[dict]]) -> dict[str, float]:
    walls, peaks = per_step(reps, "ref_s"), per_step(reps, "rss_mb")
    metrics = {}
    for name in (*TEXT_STEPS, *CONVERT_STEPS):
        metrics[f"cli.{name}_s"] = statistics.median(walls[name]) if name in walls else 0.0
        metrics[f"cli.{name}.rss_mb"] = statistics.median(peaks[name]) if name in peaks else 0.0
    return metrics


def output_bytes(work: Path, steps: list[Step]) -> dict[str, int]:
    written = [name for step in steps for name in step.outputs if (work / name).exists()]
    return {
        "formats.text_bytes": sum((work / n).stat().st_size for n in written if n.endswith(".lgx")),
        "formats.xml_bytes": sum((work / n).stat().st_size for n in written if n.endswith(".xml")),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/lexgram/cli.py", "tests/oracle.py", "fixtures/extract.lgs"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found; run from a lexgram checkout", file=sys.stderr)
            return 1

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + KILL_AFTER_S)
    steps, tables = prepare(args.workload, args.seed, work, runner)

    runner.setup_time()  # writes the bytecode cache every later process reuses
    setup: list[dict] = []

    def repetition() -> list[dict]:
        # set-up samples are spread over the run, like the chains, so that
        # both see the same spells of a busy machine
        setup.extend(runner.setup_time() for _ in range(SETUP_PER_REP))
        return runner.chain(steps)

    budget = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    # the probe samples the core the CLI processes run on: pin this thread
    # (and so the probe thread and every child process) to one core
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    start = time.perf_counter()
    with probe.Probe() as speed:
        reps = repeat_until(start + budget, repetition, MIN_REPS if not args.trace else 2)
    measured_s = time.perf_counter() - start
    for run in (*setup, *(run for rep in reps for run in rep)):
        run["probe_s"] = speed.task_s(run["start"], run["end"])
        run["ref_s"] = run["cpu_s"] * probe.REF_S / run["probe_s"]

    if args.workload == "adverbs-convert":
        problems = check_convert_chain(work)
    else:
        problems = check_text_chain(work, tables)
    attempted, failed, messages = score(reps, problems)
    pipeline, pipeline_wall = chain_totals(reps, "ref_s"), chain_totals(reps, "wall_s")
    final = "roundtrip.lgx" if args.workload == "adverbs-convert" else "full.lgx"
    entries = entry_count(work / final)

    if args.trace:
        metrics = cli_metrics(reps)
        metrics.update(output_bytes(work, steps))
        layer, layer_attempted, layer_failed, layer_messages, summary = per_layer(
            steps, reps, work, start + args.seconds,
        )
        metrics.update(layer)
        metrics["trace.pipeline_s"] = statistics.median(pipeline)
        metrics["trace.pipeline_wall_s"] = statistics.median(pipeline_wall)
        attempted += layer_attempted
        failed += layer_failed
        messages += layer_messages
        (work / "trace.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(sample["ref_s"] for sample in setup),
            "pipeline_s": statistics.median(pipeline),
            "entries_per_s": entries / statistics.median(pipeline),
            "peak_rss_mb": statistics.median(max(run["rss_mb"] for run in rep) for rep in reps),
        }
        units = {"setup_s": "s", "pipeline_s": "s", "entries_per_s": "1/s", "peak_rss_mb": "MiB"}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(cores),
        "pinned_to_core": min(cores),
        "repetitions": len(reps),
        "samples": {"setup_s": len(setup), "pipeline_s": len(pipeline), "per_step": len(reps),
                    "probe": len(speed.samples)},
        "measured_s": measured_s,
        "entries": entries,
        "failed_ops": failed / attempted,
        "output_sha256": {n: d for run in reps[-1] for n, d in run["digests"].items()},
        "probe_ref_s": probe.REF_S,
        "chain_s": pipeline,
        "chain_cpu_s": chain_totals(reps, "cpu_s"),
        "chain_wall_s": pipeline_wall,
        "step_cpu_s": per_step(reps, "cpu_s"),
        "step_wall_s": per_step(reps, "wall_s"),
        "step_probe_s": per_step(reps, "probe_s"),
        "setup_s": [sample["ref_s"] for sample in setup],
        "setup_cpu_s": [sample["cpu_s"] for sample in setup],
        "setup_probe_s": [sample["probe_s"] for sample in setup],
        "setup_wall_s": [sample["wall_s"] for sample in setup],
        "messages": messages,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"context": context, "result": result}, indent=1) + "\n")
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_ops':40} {failed:>10}/{attempted} steps")
    print(json.dumps({"context": context}, ensure_ascii=False))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("rss_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "curation.yield":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
