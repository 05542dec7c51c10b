"""Benchmark of the unionbounds bound engine.

Run from the repository root (the directory holding ``src/unionbounds``):

    python3 bench/run.py --workload compare-readme --seed 1 --seconds 30 --trace 0

Workloads: compare-readme, inclass-lp, battery-corpus (see README.md).
An untraced run (``--trace 0``) makes the workload's ``PASSES`` passes
(three, or two on inclass-lp) over the same rounds of inputs, sharing
``--seconds`` of timed work, and prints the end-to-end metrics, taking for
each case the fastest of its timings.  A traced run (``--trace 1``) makes
two passes, the second one traced, and prints the per-layer metrics.
Once timing is over, the first pass's outputs are checked against
independent references, and every later pass must repeat them exactly.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details of the run go to ``bench/out/``.  The work runs in this process on
one thread; the BLAS thread count is pinned to 1 before numpy loads, and
each untraced pass is pinned to one CPU, the CPUs taken in turn.
"""

from __future__ import annotations

import os
import time


def _seconds_since_process_start() -> float | None:
    """Wall time since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return now - start_ticks / os.sysconf("SC_CLK_TCK")


_STARTED_BEFORE_SCRIPT = _seconds_since_process_start()
_SCRIPT_START = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

WORKLOAD_NAMES = ("compare-readme", "inclass-lp", "battery-corpus")

# Wrapped functions reported in the traced run, with what is reported.
FUNCTION_METRICS = (
    ("subset_opt.select_dp", ("calls", "s")),
    ("subset_opt.select_exhaustive", ("calls", "s")),
    ("subset_opt.select_fptas", ("calls", "s")),
    ("bounds_new.lnew3", ("calls", "s")),
    ("bounds_new.lnew4", ("calls", "s")),
    ("bounds_new.ell_i", ("calls",)),
    ("bounds_new.ell_i_prime", ("calls",)),
    ("linalg.optimal_inclass_bound", ("calls", "s")),
    ("linalg.solve_lp", ("calls", "s")),
    ("weights.random_search", ("s",)),
    ("weights.kappa_line_search", ("s",)),
    ("space.WeightVector.from_components", ("calls", "s")),
    ("space.derive_partial_info", ("calls", "s")),
    ("cli.load_problem", ("s",)),
    ("cli.render_json_lines", ("s",)),
    ("bounds_classic.yat2_bound", ("s",)),
)


@dataclass
class Pass:
    """One timed pass over whole rounds.  ``case_s`` and ``records`` hold
    one entry per case attempted, None where the case failed."""

    rounds: int = 0
    bounds: int = 0
    timed_s: float = 0.0
    case_s: list[float | None] = field(default_factory=list)
    case_bounds: list[int] = field(default_factory=list)
    records: list[dict[str, Any] | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.case_s)

    @property
    def bounds_per_s(self) -> float:
        return self.bounds / self.timed_s


def run_pass(workload: Any, seconds: float, rounds: int | None = None,
             tracer: Any = None) -> Pass:
    """Run whole rounds, from round 0: exactly ``rounds`` rounds when that is
    given, else until the timed work is as close to ``seconds`` as whole
    rounds allow.  A given tracer records the timed calls only."""
    clock = time.perf_counter
    p = Pass()
    last_round = 0.0
    while p.rounds == 0 or (p.rounds < rounds if rounds
                            else p.timed_s + last_round / 2 < seconds):
        before = p.timed_s
        for case in workload.cases(p.rounds):
            if tracer is not None:
                tracer.record(True)
            started = clock()
            try:
                output = workload.run(case)
            except Exception as err:  # a failed operation is counted, not fatal
                p.timed_s += clock() - started
                p.failures.append(f"round {p.rounds}: {type(err).__name__}: {err}")
                p.case_s.append(None)
                p.case_bounds.append(0)
                p.records.append(None)
                continue
            finally:
                if tracer is not None:
                    tracer.record(False)
            elapsed = clock() - started
            record, produced = workload.keep(case, output)
            p.timed_s += elapsed
            p.bounds += produced
            p.case_s.append(elapsed)
            p.case_bounds.append(produced)
            p.records.append(record)
        p.rounds += 1
        last_round = p.timed_s - before
    return p


def best_of(passes: list[Pass]) -> tuple[list[float], int]:
    """Per case, the fastest of its timings in the passes; and the bounds
    those cases produced.  Slow spells on a shared machine last seconds,
    so timings of one case a pass apart rarely all fall in one."""
    best, bounds = [], 0
    for k, produced in enumerate(passes[0].case_bounds):
        times = [p.case_s[k] for p in passes]
        if None not in times:
            best.append(min(times))
            bounds += produced
    return best, bounds


def timed_passes(workload: Any, seconds: float) -> list[Pass]:
    """The untraced passes: the first runs whole rounds for about
    ``seconds / PASSES``, the others repeat exactly those rounds.

    Each pass is pinned to one CPU, the CPUs this process may use taken in
    turn.  On a shared host one CPU can run at half speed for minutes while
    another runs at full speed; each case's fastest timing over passes on
    different CPUs keeps such a spell out of the figures.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes: list[Pass] = []
    try:
        for k in range(workload.PASSES):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            passes.append(run_pass(workload, seconds / workload.PASSES,
                                   passes[0].rounds if passes else None))
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes: list[Pass], setup_s: float,
                       rss_mb: float) -> dict[str, Any]:
    case_s, bounds = best_of(passes)
    return {
        "setup_s": metric(setup_s, "s"),
        "bounds_per_s": metric(bounds / sum(case_s), "1/s"),
        "case_ms_p50": metric(statistics.median(case_s) * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def layer_metrics(tracer: Any, untraced: Pass, traced: Pass) -> dict[str, Any]:
    from tracing import LAYERS

    out: dict[str, Any] = {}
    for fn, kinds in FUNCTION_METRICS:
        calls, incl, _ = tracer.function(fn)
        if "calls" in kinds:
            out[f"{fn}.calls"] = metric(calls, "count")
        if "s" in kinds:
            out[f"{fn}.s"] = metric(incl, "s")
    for layer in LAYERS:
        own = tracer.layer_self_seconds(layer)
        out[f"{layer}.s"] = metric(tracer.layer_seconds(layer), "s")
        out[f"{layer}.self_s"] = metric(own, "s")
        out[f"{layer}.self_pct"] = metric(100.0 * own / traced.timed_s, "%")
    out["trace.bounds_per_s"] = metric(traced.bounds_per_s, "1/s")
    out["trace.untraced_bounds_per_s"] = metric(untraced.bounds_per_s, "1/s")
    out["trace.overhead_pct"] = metric(
        100.0 * (untraced.bounds_per_s / traced.bounds_per_s - 1.0), "%")
    return out


def check_outputs(workload: Any, passes: list[Pass], ck: Any) -> None:
    """All checks on the first pass; every later pass must repeat it."""
    first = passes[0]
    try:
        workload.check([r for r in first.records if r is not None], ck)
    except Exception:  # a check that cannot run is a failed check
        ck.failures.append("check raised:\n" + traceback.format_exc())
    for n, later in enumerate(passes[1:], start=2):
        for k, (a, b) in enumerate(zip(first.records, later.records)):
            if a is not None and b is not None:
                ck.repeat(f"pass {n} case {k}", b["outputs"], a["outputs"])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def load_package(root: Path) -> None:
    """Import unionbounds from ``root/src``, and from nowhere else."""
    src = root / "src"
    if not (src / "unionbounds" / "__init__.py").is_file():
        raise SystemExit(f"{sys.argv[0]}: no src/unionbounds under {root}; "
                         "run from the repository root")
    sys.path.insert(0, str(src))
    import unionbounds

    if Path(unionbounds.__file__).resolve().parent != (src / "unionbounds").resolve():
        raise SystemExit(f"{sys.argv[0]}: imported unionbounds from "
                         f"{unionbounds.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    load_package(root)
    import checks
    import workloads
    from tracing import Tracer

    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    since_script = time.perf_counter() - _SCRIPT_START
    setup_s = since_script + (_STARTED_BEFORE_SCRIPT or 0.0)

    if args.trace == 0:
        tracer = None
        passes = timed_passes(workload, args.seconds)
        metrics = end_to_end_metrics(passes, setup_s, peak_rss_mb())
    else:
        first = run_pass(workload, args.seconds / 2)
        tracer = Tracer()
        with tracer:
            passes = [first, run_pass(workload, 0.0, first.rounds, tracer)]
        metrics = layer_metrics(tracer, *passes)

    ck = checks.Checks()
    check_outputs(workload, passes, ck)
    failures = [f for p in passes for f in p.failures]
    result = {"correct": ck.ok, "attempted": sum(p.attempted for p in passes),
              "failed": len(failures), "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "args": vars(args),
        "result": result,
        "setup_s": setup_s,
        "passes": [{"rounds": p.rounds, "attempted": p.attempted, "bounds": p.bounds,
                    "timed_s": p.timed_s,
                    "case_ms": [None if t is None else t * 1e3 for t in p.case_s]}
                   for p in passes],
        "operation_failures": failures[:100],
        "check_counts": dict(sorted(ck.counts.items())),
        "check_failures": ck.failures[:100],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        (out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(tracer.dump(), indent=1) + "\n")
    for line in ck.failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
