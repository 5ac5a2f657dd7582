#!/usr/bin/env python3
"""Benchmark for chsh-local: three closed-loop workloads, end to end and per layer.

Run from the repository root (stdlib and numpy only; the package is
imported from ``src/``):

    python3 bench/run.py                          # every workload, one process each
    python3 bench/run.py --workload verify --seed 3 --seconds 40 --trace 0

Workloads (why each was chosen is in BENCHMARK.json; which end-to-end metric
each traced function should move is in bench/layers.json):

* ``tournament``: one unit is ``cli.main(["play", ...])`` for 20k quantum
  Monte Carlo rounds, then ``harness.read_round_table`` on the CSV it wrote.
* ``redundancy``: one unit is ``game.redundancy_demo(m)`` for m = 0..9.
* ``verify``: one unit is ``verify.picture_equivalence_suite`` on 200
  circuits (seed S) and ``verify.locality_suite`` on 100 (seed S+1).

Every workload is a closed loop: one caller and one call at a time, in this
process, with BLAS threads set to the number of usable cores.  After a
minimum-size warm-up, the same unit (same inputs) repeats until
``--seconds`` is spent, at least twice, and ``wall_s`` is the median unit
time.  Units are short so that the median rests on many samples: on a
shared 2-vCPU virtual machine the speed was seen to drift by up to 1.8x
over tens of seconds.  Every unit's outputs are checked, and
``failed``/``attempted`` count those checks.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units.  In a traced unit each function listed
in bench/layers.json is wrapped on its module object and records a span
(name, start, end, parent span, run id); spans stay in memory and are
written to ``.bench_out/`` when the run ends.  Self time is a span's
duration minus the part of it that its child spans cover.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report, including the machine and provenance block.
Full results go to ``.bench_out/<workload>-seed<S>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("tournament", "redundancy", "verify")

#: Input size of one unit of each workload, full and minimum ("smoke").
#: tournament: rounds; redundancy: highest witness count m; verify: circuits
#: of the picture-equivalence and of the locality suite.
SIZES = {
    "full": {"tournament": 20_000, "redundancy": 9, "verify": (200, 100)},
    "smoke": {"tournament": 2_000, "redundancy": 4, "verify": (20, 10)},
}
#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = {"full": 7, "smoke": 1}
MIN_ITERATIONS = 2

#: Run in a fresh interpreter: import the package and build the protocol,
#: which runs its oracle check.
SETUP_SCRIPT = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import chsh_local\n"
    "chsh_local.game.default_protocol()\n"
    "print(time.perf_counter() - t0)\n"
)

#: Tolerance of the redundancy visibilities against 1 (m = 0) and 0 (m >= 1).
VISIBILITY_TOL = 1e-9
#: Allowed distance of the sampled win rate from (2 + sqrt 2) / 4, in sigmas.
WIN_RATE_SIGMAS = 5.0

#: End-to-end metrics of the result line (BENCHMARK.json "end_to_end").
#: rounds_per_s, circuits_per_s and error_rate are printed above it: the
#: first two exist on one workload each, and error_rate is failed/attempted.
GATED_E2E = ("setup_s", "wall_s", "peak_rss_mb")
THROUGHPUT = {"tournament": "rounds_per_s", "verify": "circuits_per_s"}


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Tracing


class Tracer:
    """Wraps module-level functions and records one span per call.

    Spans are parallel arrays indexed by span id: name index, parent span id
    (-1 for a root), run id, start and end (``time.perf_counter`` seconds).
    Counters are summed per (run id, metric name).  ``install`` and
    ``uninstall`` swap the wrappers in and out of their modules.
    """

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self.first_span: dict[int, int] = {}
        self._stack: list[int] = []
        self._targets: list[tuple[Any, str, Callable, Callable]] = []

    def add(self, module, attr: str, label: str, counter=None) -> None:
        """Prepare a recording wrapper for ``module.attr``.

        ``counter``, if given, is ``(metric, fn)``: after each call
        ``fn(args, kwargs)`` is added to that metric.
        """
        fn = getattr(module, attr)
        index = len(self.labels)
        self.labels.append(label)
        name, parent, run, start, end, stack = (
            self.name, self.parent, self.run, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                if counter is not None:
                    self.counters[(self.run_id, counter[0])] += counter[1](args, kwargs)

        self._targets.append((module, attr, fn, traced))

    def begin_run(self, run_id: int) -> None:
        """Label the spans recorded from now on with ``run_id``."""
        self.run_id = run_id
        self.first_span[run_id] = len(self.start)

    def install(self) -> None:
        for module, attr, _, traced in self._targets:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._targets:
            setattr(module, attr, fn)

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: id, name, parent id, run id, start, end."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span_id,name,parent_id,run_id,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.labels[self.name[sid]]},{self.parent[sid]},"
                    f"{self.run[sid]},{self.start[sid]!r},{self.end[sid]!r}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    own = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = defaultdict(list)
    for sid, p in enumerate(parent):
        if p >= 0:
            children[p].append(sid)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        own[p] -= covered
    return own


def layer_totals(tracer: Tracer, run_id: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit, plus its accounting.

    Returns ``<label>.calls``, ``<label>.self_s``, every counter,
    ``trace.outside_s`` (traced wall time covered by no root span) and
    ``trace.accounted_s`` (summed self times plus the outside time).
    """
    # A run starts with an empty call stack, so its spans are contiguous and
    # every parent of one of them lies inside the run.
    first = tracer.first_span[run_id]
    ids = range(first, len(tracer.start))
    start = tracer.start[first:].tolist()
    end = tracer.end[first:].tolist()
    parent = [p - first if p >= 0 else -1 for p in tracer.parent[first:]]
    own = self_times(start, end, parent)
    totals: dict[str, float] = {}
    for label in tracer.labels:
        totals[f"{label}.calls"] = 0
        totals[f"{label}.self_s"] = 0.0
    for i, sid in enumerate(ids):
        label = tracer.labels[tracer.name[sid]]
        totals[f"{label}.calls"] += 1
        totals[f"{label}.self_s"] += own[i]
    for metric, _, _ in COUNTERS.values():
        totals[metric] = tracer.counters.get((run_id, metric), 0)
    roots = sum(end[i] - start[i] for i in range(len(ids)) if parent[i] < 0)
    totals["trace.outside_s"] = wall - roots
    totals["trace.accounted_s"] = sum(own) + totals["trace.outside_s"]
    return totals


def matmul_flops(args, kwargs) -> int:
    """Real floating-point operations of a complex matrix product, computed
    from the operand shapes (8 per complex multiply-add)."""
    a, b = args
    return 8 * len(a) * len(a[0]) * len(b[0])


def report_bytes(args, kwargs) -> int:
    """Bytes of the two report files ``write_report`` just wrote."""
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(f"{path}.json") + os.path.getsize(f"{path}.csv")


#: Counters recorded besides calls and self time:
#: function -> (metric, unit, fn(args, kwargs) -> amount per call).
COUNTERS = {
    "linalg.matmul": ("linalg.matmul.flops", "flop_computed", matmul_flops),
    "harness.write_report": ("harness.write_report.bytes", "bytes", report_bytes),
}
#: Whole-unit trace metrics, medians over units: traced unit time, its excess
#: over the untraced unit time (the tracing overhead), and the traced time
#: outside every span.
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s", "trace.outside_s")


def load_layer_map() -> dict:
    with open(BENCH_DIR / "layers.json", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_units(layer_map: dict) -> dict[str, str]:
    """Every per-layer metric name with its unit, in layer-map order."""
    units = {}
    for entry in layer_map["traced"]:
        label = entry["function"]
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
        if label in COUNTERS:
            metric, unit, _ = COUNTERS[label]
            units[metric] = unit
    for metric in TRACE_METRICS:
        units[metric] = "s"
    return units


def build_tracer(layer_map: dict) -> Tracer:
    tracer = Tracer()
    for entry in layer_map["traced"]:
        label = entry["function"]
        layer, attr = label.split(".")
        module = importlib.import_module(f"chsh_local.{layer}")
        metric, _, amount = COUNTERS.get(label, (None, None, None))
        tracer.add(module, attr, label, (metric, amount) if metric else None)
    return tracer


def unwrapped_aliases() -> list[str]:
    """Package functions bound by ``from X import f`` in another module.

    Such a binding is a copy, so a wrapper installed on X does not see calls
    made through it (for example ``harness.win_predicate``).
    """
    names = []
    for module_name in sorted(m for m in sys.modules if m.startswith("chsh_local")):
        module = sys.modules[module_name]
        for attr, value in vars(module).items():
            home = getattr(value, "__module__", None) or ""
            if (
                callable(value)
                and not isinstance(value, type)
                and home.startswith("chsh_local")
                and home != module_name
            ):
                names.append(f"{module_name}.{attr}")
    return names


# --------------------------------------------------------------------------
# Workloads


class Checks:
    """Output checks of one run: ``len(failures) / attempted`` is the error
    rate.  ``digest`` holds the first full-size tournament report hash."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_tournament(mods, seed: int, rounds: int, tmp: Path):
    base = str(tmp / "play")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = mods.cli.main([
            "play", "--mode", "quantum", "--sampling", "mc",
            "--seed", str(seed), "--rounds", str(rounds), "--out", base,
        ])
    rows = mods.harness.read_round_table(base + ".csv")
    return code, captured.getvalue(), rows, base


def check_tournament(mods, seed: int, rounds: int, output, checks: Checks) -> None:
    code, stdout, rows, base = output
    checks.add("play exits 0", code == 0)
    try:
        checks.add("play stdout is strict JSON", isinstance(strict_json(stdout), dict))
    except ValueError:
        checks.add("play stdout is strict JSON", False)
    report = {}
    try:
        with open(base + ".json", encoding="utf-8") as fh:
            report = strict_json(fh.read())
        checks.add("report .json is strict JSON", isinstance(report, dict))
    except (OSError, ValueError):
        checks.add("report .json is strict JSON", False)
    checks.add("read_round_table returns R rows", len(rows) == rounds)
    wins = sum(r.win for r in rows)
    checks.add("report wins match the table", report.get("wins") == wins)
    p = mods.game.QUANTUM_WIN_RATE
    sigma = math.sqrt(p * (1.0 - p) / rounds)
    checks.add("win rate within 5 sigma of (2+sqrt2)/4",
               abs(wins / rounds - p) <= WIN_RATE_SIGMAS * sigma)
    digest = hashlib.sha256()
    for suffix in (".json", ".csv"):
        with open(base + suffix, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    if checks.digest is None:
        checks.digest = digest.hexdigest()
    else:
        checks.add("same seed gives byte-identical reports", digest.hexdigest() == checks.digest)


def run_redundancy(mods, seed: int, top: int, tmp: Path):
    # The circuit is deterministic: the seed has no effect.
    return [mods.game.redundancy_demo(m) for m in range(top + 1)]


def check_redundancy(mods, seed: int, top: int, visibilities, checks: Checks) -> None:
    for m, v in enumerate(visibilities):
        expected = 1.0 if m == 0 else 0.0
        checks.add(f"visibility at m={m}", abs(v - expected) <= VISIBILITY_TOL)


def run_verify(mods, seed: int, sizes, tmp: Path):
    n_equivalence, n_locality = sizes
    return (
        mods.verify.picture_equivalence_suite(n_circuits=n_equivalence, seed=seed),
        mods.verify.locality_suite(n_circuits=n_locality, seed=seed + 1),
    )


def check_verify(mods, seed: int, sizes, output, checks: Checks) -> None:
    equivalence, locality = output
    checks.add("picture equivalence passes", equivalence.passed)
    checks.add("max deviation within EQUIVALENCE_TOL",
               equivalence.max_deviation <= mods.verify.EQUIVALENCE_TOL)
    checks.add("locality passes", locality.passed)
    checks.add("locality audited every circuit", locality.checked == sizes[1])


@dataclass(frozen=True)
class Workload:
    """``run`` is the timed section; ``check`` validates its output after
    the clock stops; ``items`` counts the work items of one unit."""

    item: str
    run: Callable
    check: Callable
    items: Callable[[Any], int]


WORKLOAD_SPECS = {
    "tournament": Workload("rounds", run_tournament, check_tournament, lambda r: r),
    "redundancy": Workload("sweep steps", run_redundancy, check_redundancy, lambda m: m + 1),
    "verify": Workload("circuits", run_verify, check_verify, lambda s: s[0] + s[1]),
}


# --------------------------------------------------------------------------
# Measurement


LAYERS = ("linalg", "descriptors", "statevector", "game", "harness", "verify", "cli")


def import_layers() -> types.SimpleNamespace:
    """The package's layer modules, imported from ``src/``."""
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"chsh_local.{layer}") for layer in LAYERS}
    )


def measure_setup(repeats: int) -> list[float]:
    """Seconds to import chsh_local and build the default protocol, each in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def iterate(step: Callable[[int], None], seconds: float, min_iterations: int) -> None:
    """Call ``step(i)`` until one more call of median length would end after
    ``seconds``; call it at least ``min_iterations`` times."""
    began = time.perf_counter()
    lengths: list[float] = []
    while True:
        t0 = time.perf_counter()
        step(len(lengths))
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - began
        if len(lengths) >= min_iterations and elapsed + statistics.median(lengths) > seconds:
            return


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import numpy as np

    import chsh_local

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas_info = {"name": "unknown", "version": "unknown"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "nproc": usable_cores(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "chsh_local": chsh_local.__version__,
        "commit": git_commit(),
    }


def run_workload(args) -> dict:
    """Run one workload in this process, print its report, return the result."""
    mods = import_layers()
    spec = WORKLOAD_SPECS[args.workload]
    scale = "smoke" if args.smoke else "full"
    size = SIZES[scale][args.workload]
    layer_map = load_layer_map()
    checks = Checks()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"chsh-local benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, {scale} size")
    info = provenance(args)
    print("provenance: " + json.dumps(info, sort_keys=True))

    setup = [] if args.trace else measure_setup(SETUP_REPEATS[scale])
    tracer = build_tracer(layer_map) if args.trace else None
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    per_unit: list[dict[str, float]] = []

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)

        def once(input_size) -> float:
            t0 = time.perf_counter()
            output = spec.run(mods, args.seed, input_size, tmp)
            wall = time.perf_counter() - t0
            spec.check(mods, args.seed, input_size, output, checks)
            return wall

        # Warm-up at minimum size: lazy imports, BLAS threads, first pages.
        once(SIZES["smoke"][args.workload])
        checks.digest = None

        def step(i: int) -> None:
            walls["untraced"].append(once(size))
            if tracer is None:
                return
            tracer.begin_run(i)
            tracer.install()
            try:
                wall = once(size)
            finally:
                tracer.uninstall()
            walls["traced"].append(wall)
            per_unit.append(layer_totals(tracer, i, wall))

        iterate(step, args.seconds, 1 if tracer else MIN_ITERATIONS)

    items = spec.items(size)
    untraced = walls["untraced"]
    wall_s = statistics.median(untraced)
    failed = len(checks.failures)
    record: dict[str, Any] = {
        "provenance": info,
        "checks": {"attempted": checks.attempted, "failed": failed, "failures": checks.failures},
        "unit_wall_s": walls,
        "setup_runs_s": setup,
        "items_per_unit": items,
        "item": spec.item,
    }
    lines = [f"  {len(untraced)} untraced units of {items} {spec.item}: median {wall_s:.4f} s, "
             f"best {min(untraced):.4f} s{tail_note(untraced)}"]
    if tracer is None:
        e2e = {
            "setup_s": (statistics.median(setup), "s",
                        f"median of {len(setup)} fresh processes"),
            "wall_s": (wall_s, "s", f"median of {len(untraced)} units"),
        }
        if args.workload in THROUGHPUT:
            e2e[THROUGHPUT[args.workload]] = (items / wall_s, "1/s", f"{spec.item} per second")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e["peak_rss_mb"] = (peak, "MiB", "peak resident memory of this process")
        e2e["error_rate"] = (failed / checks.attempted, "ratio",
                             f"{failed} of {checks.attempted} output checks failed")
        for name, (value, unit, note) in e2e.items():
            lines.append(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
        metrics = {k: record["end_to_end"][k] for k in GATED_E2E}
    else:
        units = per_layer_units(layer_map)
        values = {
            key: statistics.median_low(unit[key] for unit in per_unit)
            for key in units if key not in TRACE_METRICS
        }
        values["trace.wall_s"] = statistics.median(walls["traced"])
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        values["trace.outside_s"] = statistics.median_low(unit["trace.outside_s"] for unit in per_unit)
        lines.append(f"  per layer, median of {len(per_unit)} traced units, by self time:")
        ranked = sorted(units, key=lambda k: -values[k] if k.endswith(".self_s") else 0.0)
        for key in ranked:
            lines.append(f"  {key:<40} {values[key]:>14.6g} {units[key]}")
        worst = max(abs(u["trace.accounted_s"] - w) for u, w in zip(per_unit, walls["traced"]))
        lines.append(f"  accounting: in each traced unit, summed self times + outside = traced "
                     f"wall time, worst difference {worst:.3g} s")
        spans_path = OUT_DIR / f"{stem}-spans.csv"
        tracer.write_spans(spans_path)
        unwrapped = unwrapped_aliases()
        reexports = [n for n in unwrapped if n.count(".") == 1]
        others = ", ".join(n for n in unwrapped if n.count(".") > 1) or "none"
        lines.append(f"  {len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
        lines.append(f"  unwrapped (from-import bindings, calls through them are not traced): "
                     f"{others}; {len(reexports)} re-exports in chsh_local/__init__.py")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        record.update(per_layer=metrics, per_unit=per_unit, unwrapped=unwrapped,
                      spans_file=str(spans_path.relative_to(ROOT)))

    if checks.failures:
        lines.append("  FAILED checks: " + "; ".join(sorted(set(checks.failures))))
    results_path = OUT_DIR / f"{stem}.json"
    results_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    lines.append(f"  results: {results_path.relative_to(ROOT)}")
    print("\n".join(lines))
    return {"correct": not checks.failures, "attempted": checks.attempted,
            "failed": failed, "metrics": metrics}


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    if len(values) < 25:
        return f", worst {max(values):.4f} s"
    pct = math.floor(100 * (1 - 10 / len(values)))
    return f", p{pct} {sorted(values)[math.ceil(len(values) * pct / 100) - 1]:.4f} s"


def run_all(args) -> int:
    """Run every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced units")
    parser.add_argument("--smoke", action="store_true",
                        help="minimum input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "chsh_local" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # Before numpy is imported: one BLAS thread per usable core, no more.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(usable_cores())
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
