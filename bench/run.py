"""Benchmark of the apolarity package, one workload per process.

    python3 bench/run.py --workload tangent-dense --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Operations run one at a time from this single process (a closed
loop with one client and no extra threads), in whole rounds over the
workload's distinct inputs, each round in a seeded shuffled order, until
the next round would end past --seconds (at least three rounds).  Each
input's time is the median of its passes, so one slow phase of the machine
cannot set it.  Outputs are checked outside the timed sections.

The machine's speed drifts by up to a fifth over tens of seconds, more than
any single run can average out.  So a fixed computation from the bench's
own code (``algebra``, never the package) is timed every 0.2 s through the
run, and each operation time is rescaled to the speed at which that
computation takes REFERENCE_CAL_S: the times are seconds at a reference
speed of the machine.  README.md gives the figures behind this choice.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1, each input is traced in every other round, and
the object holds the per-layer metrics and the tracing overhead.  See
README.md for the metrics, the workloads and the reference figures.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import algebra as A

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail latency is the input time with this many inputs above it
SETUP_SAMPLES = 15
CALIBRATION_EVERY = 0.2  # seconds between calibration samples
CALIBRATION_WINDOW = 9  # nearest samples that set the local speed of an operation
REFERENCE_CAL_S = 0.006  # the calibration's median time on the reference machine

SETUP_CODE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import apolarity
import apolarity.cli
try:
    with contextlib.redirect_stdout(io.StringIO()):
        apolarity.cli.main(["--help"])
except SystemExit:
    pass
print(time.perf_counter() - t0)
"""


class Raised:
    """An operation that raised instead of answering."""

    def __init__(self, exc: Exception):
        self.key = ("raised", type(exc).__name__, str(exc)[:200])


class Calibration:
    """Times a fixed computation of the bench's own through the run and
    gives, for any moment, the factor that rescales a time measured then
    to the reference speed."""

    def __init__(self):
        rng = random.Random("calibration")
        self.terms = [(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                       [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)])
                      for _ in range(6)]
        self.matrix = [[rng.randint(-99, 99) for _ in range(10)] for _ in range(10)]
        self.at: list[float] = []
        self.cost: list[float] = []

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= CALIBRATION_EVERY:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        A.expand_power_sum(self.terms, 3, 5)
        A.bareiss_rank(self.matrix)
        self.at.append(t0)
        self.cost.append(perf_counter() - t0)

    def scale(self, t: float) -> float:
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - CALIBRATION_WINDOW // 2, len(self.at) - CALIBRATION_WINDOW))
        return REFERENCE_CAL_S / statistics.median(self.cost[lo:lo + CALIBRATION_WINDOW])


def measure_setup() -> float:
    """Median seconds from a fresh interpreter's first import of the package
    to a built command-line parser, over several child processes, rescaled
    to the reference speed by calibration samples taken between them."""
    cal = Calibration()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        cal.sample()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first child may also write the bytecode cache
            samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples) * REFERENCE_CAL_S / statistics.median(cal.cost)


def run_rounds(ops, seconds: float, seed: int, tracer=None):
    """Whole rounds until the next would end past `seconds`.  With a tracer,
    every input is traced in every other round, alternating between inputs,
    so that traced and untraced passes share the machine's phases; such a
    run stops after an even number of rounds.  Returns the per-input
    (start, seconds) samples, untraced and traced, the distinct outputs of
    each input with their counts, the round count and the calibration."""
    rng = random.Random(f"order-{seed}")
    cal = Calibration()
    plain = [[] for _ in ops]
    traced = [[] for _ in ops]
    outputs = [{} for _ in ops]  # key -> [first output, count]
    min_rounds = MIN_ROUNDS if tracer is None else 2 * MIN_ROUNDS - 2
    rounds, start = 0, perf_counter()
    # as in timeit: no cyclic collection inside timed calls, one between rounds
    gc.disable()
    try:
        while True:
            order = list(range(len(ops)))
            rng.shuffle(order)
            gc.collect()
            for i in order:
                tracing = tracer is not None and (rounds + i) % 2 == 1
                cal.maybe_sample()
                if tracing:
                    tracer.install()
                    try:
                        out, dt = timed(lambda: tracer.run_op(ops[i].call))
                    finally:
                        tracer.uninstall()
                else:
                    out, dt = timed(ops[i].call)
                (traced if tracing else plain)[i].append(dt)
                key = out.key if isinstance(out, Raised) else ops[i].key(out)
                seen = outputs[i].setdefault(key, [out, 0])
                seen[1] += 1
            rounds += 1
            elapsed = perf_counter() - start
            if (rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds
                    and (tracer is None or rounds % 2 == 0)):
                cal.maybe_sample()
                return plain, traced, outputs, rounds, cal
    finally:
        gc.enable()


def timed(call):
    """(output, (start, seconds)); an exception is a failed operation."""
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # the run goes on
        out = Raised(exc)
    return out, (t0, perf_counter() - t0)


def judge(ops, outputs, wrong_output):
    """Check each distinct output once.  Returns (attempted, failed, correct,
    failure messages)."""
    attempted = failed = 0
    correct = True
    messages = []
    for op, seen in zip(ops, outputs):
        for out, count in seen.values():
            attempted += count
            if isinstance(out, Raised):
                failed += count
                messages.append(f"{op.name}: raised {out.key[1]}: {out.key[2]}")
                continue
            try:
                verdict = op.check(out)
            except wrong_output as exc:
                verdict, correct = str(exc), False
            except (KeyError, TypeError, ValueError) as exc:  # malformed output
                verdict, correct = f"unreadable output ({exc!r})", False
            if verdict != "ok":
                failed += count
                messages.append(f"{op.name}: {verdict}")
    return attempted, failed, correct, messages


def medians(samples, cal=None):
    """Each input's median time over its passes, rescaled to the reference
    speed when a calibration is given."""
    if cal is None:
        return [statistics.median(dt for _, dt in s) for s in samples]
    return [statistics.median(dt * cal.scale(t0) for t0, dt in s) for s in samples]


def latency_metrics(med) -> dict:
    med = sorted(med)
    return {
        "latency_p50_s": (statistics.median(med), "s"),
        "latency_tail_s": (med[len(med) - 1 - TAIL_BEYOND], "s"),
        "forms_per_s": (len(med) / sum(med), "forms/s"),
    }


def end_to_end(plain, cal, setup_s: float) -> dict:
    metrics = latency_metrics(medians(plain, cal))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def per_layer(tracer, plain, traced, cal) -> dict:
    rounds = len(traced[0])
    metrics = {}
    for k, name in enumerate(tracer.names[:tracer.op_index]):
        metrics[f"{name}.calls"] = (tracer.calls[k] / rounds, "count")
        metrics[f"{name}.self_s"] = (tracer.self_time[k] / rounds, "s")
    c = tracer.counters
    norm_calls = tracer.calls[tracer.names.index("cubics.normalize_tangent_product")]
    metrics.update({
        "linalg.rref.cells": (c.rref_cells / rounds, "count"),
        "linalg.RowSpan.max_bits": (c.rowspan_max_bits, "bits"),
        "apolar.catalecticant.cells": (c.catalecticant_cells / rounds, "count"),
        "poly.substitute.max_bits": (c.substitute_max_bits, "bits"),
        "cubics.normalize_tangent_product.found": (c.normalize_found / rounds, "count"),
        "cubics.normalize_tangent_product.found_ratio":
            (c.normalize_found / norm_calls if norm_calls else 0.0, "ratio"),
        "certificates.rank_report.witness_max_bits": (c.witness_max_bits, "bits"),
        "trace.overhead_pct":
            (100 * (sum(medians(traced, cal)) / sum(medians(plain, cal)) - 1), "%"),
        "trace.coverage_pct": (100 * tracer.op_covered / tracer.op_time, "%"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apolarity" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apolarity
    import apolarity.cli  # noqa: F401  (the CLI module is not imported by the package)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](apolarity, args.seed, workdir)
    tracer = Tracer(apolarity) if args.trace else None
    setup_s = None if tracer else measure_setup()

    plain, traced, outputs, rounds, cal = run_rounds(ops, args.seconds, args.seed, tracer)
    attempted, failed, correct, messages = judge(ops, outputs, workloads.WrongOutput)
    if tracer:
        metrics = per_layer(tracer, plain, traced, cal)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.name)} written to {path}", file=sys.stderr)
    else:
        metrics = end_to_end(plain, cal, setup_s)
    raw = latency_metrics(medians(plain))
    print(f"{args.workload}: {len(ops)} inputs, {rounds} rounds, "
          f"{failed}/{attempted} failed; calibration median "
          f"{statistics.median(cal.cost):.5f} s over {len(cal.cost)} samples; unscaled "
          + ", ".join(f"{k} {v:.5g}" for k, (v, _) in raw.items()), file=sys.stderr)
    for message in sorted(set(messages)):
        print(f"  {message}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
