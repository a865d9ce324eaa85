"""Benchmark of the knows-sidecar toolchain.

Usage, from the repository root:

    python3 bench/run.py --workload agent_query --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` gives the per-layer metrics instead: it runs the op stream in
four windows, untraced and with every seam wrapped in turn, writes the spans
to ``.bench_out/`` and adds the graph corpus-size curve.  The last
line of standard output is one JSON object with the results.  The package is
imported from ``src/`` beside this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import array
import bisect
import functools
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_files", "agent_query", "graph_trace", "audit_batch")
# Set-up runs at least this often and for at least this long; its median is
# reported.  A set-up of a fraction of a second swings with the host's load,
# so the short ones are repeated more.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_REFERENCES = 3  # reference runs on each side of a set-up
SETUP_SAMPLE_EVERY = 0.05  # seconds between reference runs during a set-up

# The host's speed is measured beside the program: between ops, at least
# every ``REFERENCE_EVERY`` seconds, the benchmark times a fixed reference
# task with the collector off, which calls no program code.  On a shared host
# pure Python runs up to twice as slow from one second to the next, and the
# reference task slows with it.  Every reported time is scaled to a host on
# which the reference task takes ``REFERENCE_MS``: an op's latency times
# ``REFERENCE_MS`` over the median of the reference times taken around it
# (the ``NEIGHBOURS`` last before it and first after it).  The unscaled
# figures are printed beside.
#
# Each workload names the task that slows as its own ops do
# (``Workload.reference``): a pure-Python YAML parse of ``REFERENCE_DOC`` for
# the parse-, lint- and retrieval-heavy ones; for graph_trace, whose ops are
# tight loops over many small objects, the same parse followed by a walk of
# ``WALK_STEPS`` steps round a cycle through a ``WALK_SIZE``-entry array.
REFERENCE_DOC = "".join(f"- id: s{i}\n  n: {i}\n  text: alpha beta gamma\n" for i in range(3))
WALK_SIZE = 1 << 20
WALK_STEPS = 12_000
REFERENCE_MS = 1.0
REFERENCE_EVERY = 0.005
NEIGHBOURS = 2

# The metrics BENCHMARK.json bounds.
END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# Units of the printed figures that BENCHMARK.json does not list.
REPORT_UNITS = {
    "write_latency_p50_ms": "ms",
    "error_rate": "ratio",
    "reference_ms_median": "ms",
    "wall_throughput_ops_s": "1/s",
    "wall_latency_p50_ms": "ms",
    "wall_setup_s": "s",
}


def _import_package():
    src = ROOT / "src"
    if not (src / "knows_sidecar" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src}/knows_sidecar")
    sys.path.insert(0, str(src))
    import knows_sidecar

    if Path(knows_sidecar.__file__).resolve().parent != (src / "knows_sidecar").resolve():
        raise SystemExit(f"bench: imported {knows_sidecar.__file__}, not the checkout's source")


def _yaml_parse() -> None:
    import yaml

    yaml.load(REFERENCE_DOC, Loader=yaml.SafeLoader)


@functools.cache
def _walk_cycle() -> array.array:
    """A single cycle through all ``WALK_SIZE`` entries, in a fixed order."""
    order = array.array("i", range(WALK_SIZE))
    random.Random("walk").shuffle(order)
    cycle = array.array("i", bytes(4 * WALK_SIZE))
    for k, here in enumerate(order):
        cycle[here] = order[k + 1 - WALK_SIZE]
    return cycle


def _parse_and_walk() -> None:
    _yaml_parse()
    cycle, i = _walk_cycle(), 0
    for _ in range(WALK_STEPS):
        i = cycle[i]


REFERENCE_TASKS = {"yaml_parse": _yaml_parse, "parse_and_walk": _parse_and_walk}


def reference_time(task: str) -> float:
    """One run of a reference task, in milliseconds."""
    run = REFERENCE_TASKS[task]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return (time.perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()


def _scales(references: list, ops: int) -> list:
    """Per op, ``REFERENCE_MS`` over the median reference time around it.

    ``references`` holds ``(done, ms)`` pairs in the order taken: ``done`` ops
    had completed when the reference task took ``ms``.
    """
    done = [d for d, _ in references]
    scales = []
    for i in range(ops):
        before = bisect.bisect_right(done, i)  # references taken before op i
        around = references[max(0, before - NEIGHBOURS) : before + NEIGHBOURS]
        scales.append(REFERENCE_MS / statistics.median(ms for _, ms in around))
    return scales


def timed_setup(workload, seed: int):
    """One set-up: its state, its wall time in seconds and its time scaled to
    the reference host.

    Set-up is one long call into the program, so the reference task runs
    inside it from a timer signal every ``SETUP_SAMPLE_EVERY`` seconds, as
    well as ``SETUP_REFERENCES`` times on each side; the time the signal
    handler takes is not counted.
    """
    references = [reference_time(workload.reference) for _ in range(SETUP_REFERENCES)]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        references.append(reference_time(workload.reference))
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SETUP_SAMPLE_EVERY, SETUP_SAMPLE_EVERY)
    try:
        base = workload.setup(seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - spent
        signal.signal(signal.SIGALRM, previous)
    references += [reference_time(workload.reference) for _ in range(SETUP_REFERENCES)]
    return base, wall, wall * REFERENCE_MS / statistics.median(references)


def _environment() -> dict:
    import yaml

    return {
        "python": platform.python_version(),
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _workload(name: str, workdir: Path):
    import workloads

    return {
        "cli_files": lambda: workloads.CliFiles(workdir),
        "agent_query": workloads.AgentQuery,
        "graph_trace": workloads.GraphTrace,
        "audit_batch": workloads.AuditBatch,
    }[name]()


@dataclass
class Phase:
    """What a closed-loop phase measured; outputs are checked, then dropped."""

    latencies: list = field(default_factory=list)  # wall seconds per op, in op order
    references: list = field(default_factory=list)  # (ops done, reference task ms)
    writes: list = field(default_factory=list)  # whether each op was a write
    failed: int = 0
    busy: float = 0.0  # wall time of the phase minus oracle checks and reference runs

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def scaled_ms(self) -> list:
        """Each op's latency in ms on the reference host (see ``REFERENCE_MS``)."""
        return [v * 1000 * k for v, k in zip(self.latencies, _scales(self.references, self.ops))]


def run_phase(workload, base: dict, window: int, *, seconds: float, runner=None) -> Phase:
    """Run one window's ops on a fresh state until ``seconds`` of busy time pass.

    Each op's output goes to its oracle right away, and the reference task
    runs after it when ``REFERENCE_EVERY`` has passed since it last ran;
    both are excluded from the op's latency and from the phase's busy time,
    as is making a fresh state every ``workload.epoch_ops`` ops.  An op that
    raises counts as failed.  The state is dropped after.
    """
    phase = Phase()
    start = time.perf_counter()
    state = workload.fresh(base, window)
    ops = workload.ops(state)
    phase.references.append((0, reference_time(workload.reference)))
    last_reference = time.perf_counter()
    checking = last_reference - start
    while True:
        op = next(ops)
        t0 = time.perf_counter()
        try:
            output = workload.run(state, op) if runner is None else runner(workload.run, state, op)
        except Exception:  # a failed op, recorded and not raised
            output, ok = None, False
        else:
            ok = None
        t1 = time.perf_counter()
        if ok is None:
            try:
                ok = bool(workload.check(state, op, output))
            except Exception:  # a malformed output can break its oracle
                ok = False
        del output
        phase.latencies.append(t1 - t0)
        phase.writes.append(op[0] == "write")
        phase.failed += not ok
        if workload.epoch_ops and phase.ops % workload.epoch_ops == 0:
            state = None
            gc.collect()  # the old state's cycles, so no op pays for them
            state = workload.fresh(base, window, phase.ops // workload.epoch_ops)
            ops = workload.ops(state)
        if t1 - last_reference >= REFERENCE_EVERY:
            phase.references.append((phase.ops, reference_time(workload.reference)))
            last_reference = time.perf_counter()
        t2 = time.perf_counter()
        checking += t2 - t1
        phase.busy = t2 - start - checking
        if phase.busy >= seconds:
            break
    if phase.references[-1][0] != phase.ops:
        phase.references.append((phase.ops, reference_time(workload.reference)))
    return phase


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, with nothing wrapped.

    Set-up repeats (see ``SETUP_REPEATS``) and its median is reported.  A short
    warm-up then runs on one fresh copy of the set-up state and the timed
    phase on another (``Workload.fresh``), so the timed ops find nothing the
    warm-up left in program objects; the warm-up's op stream is seeded apart
    from the timed one.  The metrics pool every op of the timed phase:
    throughput is its ops over the time spent in the program's calls, which
    leaves out the benchmark's own op generation and oracle checks.  Every
    time is scaled to the reference host (``REFERENCE_MS``); each set-up by
    the reference runs during it (``timed_setup``).
    """
    import workloads

    setups, wall_setups, base = [], [], None
    try:
        while len(setups) < SETUP_REPEATS or sum(wall_setups) < SETUP_SECONDS:
            if base is not None:
                workload.close(base)
                base = None
                gc.collect()
            base, wall, scaled = timed_setup(workload, seed)
            wall_setups.append(wall)
            setups.append(scaled)
        warm_up = run_phase(workload, base, workloads.WARM_UP, seconds=min(1.0, seconds / 10))
        gc.collect()
        timed = run_phase(workload, base, workloads.WARM_UP + 1, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if base is not None:
            workload.close(base)
    latencies = timed.scaled_ms()
    writes = [v for v, write in zip(latencies, timed.writes) if write]
    p90 = _percentile(latencies, 90)
    metrics = {
        "throughput_ops_s": timed.ops / sum(latencies) * 1000,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted, failed = warm_up.ops + timed.ops, warm_up.failed + timed.failed
    report = {
        "error_rate": failed / attempted,
        "timed_ops": timed.ops,
        "setups": len(setups),
        "samples_beyond_p90": sum(v > p90 for v in latencies),
        "reference_ms_median": statistics.median(ms for _, ms in timed.references),
        "wall_throughput_ops_s": timed.ops / sum(timed.latencies),
        "wall_latency_p50_ms": statistics.median(timed.latencies) * 1000,
        "wall_setup_s": statistics.median(wall_setups),
    }
    if workload.name == "graph_trace":
        report["write_latency_p50_ms"] = statistics.median(writes) if writes else float("nan")
        report["writes"] = len(writes)
    return dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        report=report,
    )


def measure_traced(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics: four windows, untraced and traced in turn.

    Every window runs on a fresh copy of the set-up state, so the tracing
    overhead compares each op's fastest untraced and fastest traced run.
    The seams are wrapped only while a traced window's state is made and
    run, so the passage providers made for it are wrapped too.
    """
    import corpus
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    base = workload.setup(seed)
    windows = []
    try:
        warm_up = run_phase(workload, base, workloads.WARM_UP, seconds=min(1.0, seconds / 10))
        for window, traced in enumerate((False, True, False, True), start=1):
            if traced:
                tracer.install()
            try:
                runner = tracer.run_op if traced else None
                windows.append(run_phase(workload, base, window, seconds=seconds / 4, runner=runner))
            finally:
                tracer.uninstall()
    finally:
        workload.close(base)

    n = min(w.ops for w in windows)
    scaled = [w.scaled_ms() for w in windows]
    untraced_s = sum(min(scaled[0][i], scaled[2][i]) for i in range(n))
    traced_s = sum(min(scaled[1][i], scaled[3][i]) for i in range(n))
    overhead = traced_s / untraced_s - 1
    traced_ops = windows[1].ops + windows[3].ops
    records = [workloads.load_tree(t) for t in corpus.graph_corpus(seed, workloads.GRAPH_RECORDS).trees]
    curve = tracing.size_curve(records, seed)
    values = tracer.metrics(traced_ops, overhead, curve)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.jsonl"
    tracer.write(spans_path, dict(workload=workload.name, seed=seed, ops=traced_ops, **_environment()))
    attempted = warm_up.ops + sum(w.ops for w in windows)
    failed = warm_up.failed + sum(w.failed for w in windows)
    return dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={metric: {"value": values[metric], "unit": unit} for metric, unit in tracing.PER_LAYER},
        report={
            "traced_ops": traced_ops,
            "error_rate": failed / attempted,
            "absent_seams": ",".join(tracer.absent) or "none",
            "spans": str(spans_path.relative_to(ROOT)),
        },
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = dict(correct=True, attempted=0, failed=0, metrics={})
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_package()
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = _workload(args.workload, workdir)
        if args.trace:
            result = measure_traced(workload, args.seed, args.seconds)
        else:
            result = measure(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# python {env['python']} libyaml {env['libyaml']} nproc {env['nproc']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    for key, value in result.pop("report").items():
        unit = REPORT_UNITS.get(key, "")
        print(f"# {key} {value:.6g} {unit}" if isinstance(value, float) else f"# {key} {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
