"""Benchmark of coax, in process, against its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke
    python3 bench/run.py --targets

Run from the root of a checkout; the program is imported from ``src/`` and
the acceptance tests' random instances from ``tests/oracles.py``.
A run sets its workload up, then sends one operation after another (a
closed loop with one caller) through the workload's input list, in its
fixed order, a whole number of times, until ``--seconds`` of timed
operations and at least ``MIN_OPS`` operations are done.  Every output is
checked.  Between operations a fixed pure-Python loop is timed
(``host.ref_loop_ms``) so that a slow host can be told apart from a slow
program, and the set-up is repeated now and then (see ``Builds``) so that
``setup_s`` is sampled across the whole run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every other operation is traced, and it carries the
per-layer metrics of the traced operations plus the tracing overhead
against the untraced ones.  Results and span dumps go to ``bench/out/``.
``--smoke`` runs a few operations of each kind in every workload with every
check on; ``--targets`` prints ``dist_pipeline``'s rule-count targets
recomputed from the recipe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
REBUILD_EVERY_S = 4.0  # timed seconds between two repeated set-ups
MIN_OPS = 100  # so that a p90 has at least ten samples beyond it
REF_EVERY_S = 0.25  # timed seconds between two reference-loop samples
IMPORT_REPEATS = 5
SMOKE_OPS = 8


def ref_loop_ms() -> float:
    """Time a fixed pure-Python loop; its drift is the host's, not coax's."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Builds:
    """Set-up timing: a workload's inputs built from scratch, first for the
    run, then again every REBUILD_EVERY_S timed seconds, the copy thrown
    away.

    The host switches between fast and slow spells that last from a fraction
    of a second to many seconds, so a set-up timed once, or a few times in a
    row, lands in one spell.  Builds spread over the whole run see the same
    mix of spells as its operations; ``setup_s`` is their median.  Each
    build starts after a full garbage collection, so that no build pays for
    a collection of the garbage that the operations before it left.
    """

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.times: list[float] = []

    def build(self) -> list:
        gc.collect()
        start = time.perf_counter()
        ops = self.workload(self.seed)
        self.times.append(time.perf_counter() - start)
        return ops

    @property
    def setup_s(self) -> float:
        return statistics.median(self.times)


class Loop:
    """The closed loop over one workload's input list.

    With a tracer, operation i of round r is traced when i + r is even, so
    that over two rounds every operation runs once traced and once not, and
    the two kinds interleave finely enough for the host's drift to cancel.
    """

    def __init__(self, ops: list, tracer=None, builds: Builds | None = None):
        self.ops = ops
        self.tracer = tracer
        self.builds = builds
        self.since_build = 0.0
        self.latencies: list[float] = []  # untraced operations, seconds
        self.traced: list[float] = []
        self.ref: list[float] = []
        self.failed: list[str] = []  # operations that raised
        self.wrong: list[str] = []  # outputs that failed a check
        self.timed = 0.0  # seconds inside operations, failed ones too
        self.rounds = 0

    def round(self) -> None:
        since_ref = REF_EVERY_S
        clock = time.perf_counter
        tracer = self.tracer
        for index, op in enumerate(self.ops):
            if since_ref >= REF_EVERY_S:
                self.ref.append(ref_loop_ms())
                since_ref = 0.0
            if self.builds is not None and self.since_build >= REBUILD_EVERY_S:
                self.builds.build()
                self.since_build = 0.0
            traced = tracer is not None and (index + self.rounds) % 2 == 0
            if tracer is not None:
                tracer.begin(index, op.system, traced)
            start = clock()
            try:
                result = op()
            except Exception as exc:  # counted, and the loop goes on
                self.failed.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = clock() - start
                self.timed += elapsed
                since_ref += elapsed
                self.since_build += elapsed
                if tracer is not None:
                    tracer.end()
            (self.traced if traced else self.latencies).append(elapsed)
            why = op.check(result)
            result = None  # so that no output is alive in the next operation
            if why is not None:
                self.wrong.append(why)
        self.rounds += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced) + len(self.failed)


def measure(ops: list, seconds: float, tracer=None, builds=None) -> Loop:
    """Whole rounds until ``seconds`` are timed; a traced run does pairs of
    rounds, so every operation has as many traced samples as untraced."""
    loop = Loop(ops, tracer, builds)
    while loop.timed < seconds or loop.attempted < MIN_OPS or tracer and loop.rounds % 2:
        loop.round()
    return loop


def spread(samples: list[float]) -> float:
    """(q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2


def import_ms() -> float:
    """Median wall time of a fresh interpreter importing coax.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import coax.cli"], env=env, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float]:
    lat = loop.latencies
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "startup.import_ms": "ms",
    "host.ref_loop_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.drift_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name == "count.emit_bytes":
        return "bytes"
    return "count" if name.startswith("count.") else "ms"


def report(loop: Loop) -> list[str]:
    lines = [f"FAILED: {why}" for why in loop.failed[:10]]
    return lines + [f"WRONG: {why}" for why in loop.wrong[:10]]


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    builds = Builds(WORKLOADS[name], seed)
    ops = builds.build()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    # a traced run reports no setup_s and repeats no set-up
    loop = measure(ops, seconds, tracer, None if trace else builds)
    if not loop.latencies or trace and not loop.traced:
        for line in report(loop):
            print(line, file=sys.stderr)
        print(f"error: no {name} operation succeeded", file=sys.stderr)
        return 1
    host = statistics.median(loop.ref)
    notes = []
    if trace:
        metrics = tracer.layer_metrics(len(loop.traced))
        # the same operations, as often traced as untraced (when none failed)
        overhead = (sum(loop.traced) / sum(loop.latencies) - 1) * 100
        drift = spread(loop.ref) * 100 if len(loop.ref) > 1 else 0.0
        metrics["trace.overhead_pct"] = overhead
        metrics["trace.drift_pct"] = drift
        metrics["startup.import_ms"] = import_ms()
        metrics["host.ref_loop_ms"] = host
        if abs(overhead) <= drift:
            notes.append(f"trace.overhead_pct unresolved: within the host's drift "
                         f"of {drift:.3g} % (IQR/median of host.ref_loop_ms)")
    else:
        metrics = end_to_end(loop, builds.setup_s)
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.dump(OUT / f"spans-{stem}.tsv")
    record = dict(result, workload=name, seed=seed, seconds=seconds, rounds=loop.rounds,
                  ops_per_round=len(ops), setups=len(builds.times), host_ref_loop_ms=host, problems=report(loop))
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in report(loop):
        print(line, file=sys.stderr)
    print(f"# {name} seed={seed} rounds={loop.rounds} ops={loop.attempted} "
          f"ops/round={len(ops)} set-ups={len(builds.times)} host.ref_loop_ms={host:.4f}")
    for k, v in metrics.items():
        print(f"#   {k} = {v:.6g} {unit(k)}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke_ops(name: str, ops: list) -> list:
    """The first SMOKE_OPS operations of each kind; of dist_pipeline, the
    smallest graphs."""
    if name == "dist_pipeline":
        ops = sorted(ops, key=lambda op: op.rules)
    picked: dict[str, list] = {}
    for op in ops:
        kind = picked.setdefault(op.kind, [])
        if len(kind) < SMOKE_OPS:
            kind.append(op)
    return [op for kind in picked.values() for op in kind]


def smoke() -> int:
    """A few operations of each kind in every workload, untraced and traced,
    every check on; and dist_pipeline's targets against the recipe."""
    from spans import Tracer
    from workloads import DIST_TARGETS, WORKLOADS, reference_targets

    attempted = failed = wrong = 0
    for name, workload in WORKLOADS.items():
        loop = Loop(smoke_ops(name, workload(0)), Tracer())
        loop.round()
        loop.round()
        for line in report(loop):
            print(f"{name}: {line}", file=sys.stderr)
        attempted += loop.attempted
        failed += len(loop.failed)
        wrong += len(loop.wrong)
        kinds = sorted({op.kind for op in loop.ops})
        print(f"# smoke {name} ({', '.join(kinds)}): {loop.attempted} operations, "
              f"{len(loop.failed)} failed, {len(loop.wrong)} wrong")
    targets = reference_targets()
    if targets != DIST_TARGETS:
        print(f"WRONG: dist_pipeline targets {DIST_TARGETS}, the recipe gives {targets}",
              file=sys.stderr)
        wrong += 1
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if failed == wrong == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--targets", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "coax" / "__init__.py").is_file():
        print(f"error: no coax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.smoke:
        return smoke()
    if args.targets:
        from workloads import reference_targets

        print(reference_targets())
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
