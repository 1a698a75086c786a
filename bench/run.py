"""sp4cert benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload decompose|witness|verify|member \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  The run is a closed loop in one process: one client, no
threads, the next operation starts when the previous one returns.  It
sets up the workload's round of inputs (three times, reporting the
median set-up time), then repeats whole rounds until the round boundary
nearest to ``--seconds``.  Every output of the first round is checked by
the independent oracle in ``oracle.py``; every later round must
reproduce the first round's outputs exactly.  Times are quoted at a
fixed reference speed (``HostSpeed``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  A traced run also writes its spans to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3
REF_EVERY_S = 0.1  # operation time between two reference passes
REF_S = 0.0015  # reference-pass time at which scaled times are quoted
SETUP_PASSES = 10  # reference passes before and after each set-up
REF_WINDOW = 5  # an operation is scaled by this many passes on each side of it

_REF_A = [[Fraction(3 ** (i + j + 40) + i, 7 ** (i + 1)) for j in range(4)] for i in range(4)]


def _reference_pass() -> None:
    """Six exact 4x4 ``Fraction`` products, written here and not taken
    from sp4cert, so no program change moves it."""
    m = _REF_A
    for _ in range(6):
        m = [[sum(m[i][k] * _REF_A[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


class HostSpeed:
    """The host's current speed, read from reference passes interleaved
    with the timed work.

    A shared host drifts between speed spells far apart (a fixed round of
    ``verify`` took 2.3 to 5.0 s within two minutes), and the program's
    exact arithmetic drifts with a fixed pass of the same kind of
    arithmetic.  Timings are therefore quoted at the speed where one pass
    takes ``REF_S``: a measured time times ``REF_S`` over the mean pass
    time measured around it."""

    def __init__(self) -> None:
        self.samples = self.passes(1)
        self.marks: list[int] = []  # passes taken before each timed operation ended
        self._busy = 0.0

    @staticmethod
    def passes(n: int) -> list[float]:
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            _reference_pass()
            out.append(time.perf_counter() - t0)
        return out

    def tick(self, busy: float) -> None:
        """Count one operation of ``busy`` seconds; sample every REF_EVERY_S."""
        self.marks.append(len(self.samples))
        self._busy += busy
        if self._busy >= REF_EVERY_S:
            self._busy = 0.0
            self.samples += self.passes(1)

    def scaled(self, durations: list[float]) -> list[float]:
        """Each operation's time, scaled by the passes nearest to it."""
        n = len(self.samples)
        return [
            d * self.scale(self.samples[max(0, min(k, n - 1) - REF_WINDOW):k + REF_WINDOW])
            for d, k in zip(durations, self.marks)
        ]

    @staticmethod
    def scale(samples: list[float]) -> float:
        return REF_S / statistics.fmean(samples)


def _import_program():
    src = ROOT / "src"
    if not (src / "sp4cert" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'sp4cert'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import sp4cert

    if Path(sp4cert.__file__).resolve().parent != (src / "sp4cert").resolve():
        sys.exit(f"bench: imported sp4cert from {sp4cert.__file__}, not from {src}")
    import workloads

    return workloads


def _setups(wl, sp, seed: int):
    """Set up SETUPS times; returns the cases and each set-up's time,
    scaled by the reference passes just before and just after it."""
    cases, scaled = None, []
    before = HostSpeed.passes(SETUP_PASSES)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        again = wl.setup(sp, seed)
        took = time.perf_counter() - t0
        after = HostSpeed.passes(SETUP_PASSES)
        scaled.append(took * HostSpeed.scale(before + after))
        before = after
        if cases is not None and [c.text for c in again] != [c.text for c in cases]:
            sys.exit("bench: set-up is not deterministic for this seed")
        cases = cases or again
    return cases, scaled


def _run_round(wl, sp, cases, tracer=None, speed=None):
    """One pass over the round; returns (outputs, seconds per case, errors)."""
    outs, secs, errors = [], [], []
    clock = time.perf_counter
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op_id += 1
        t0 = clock()
        try:
            out = wl.op(sp, case)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            errors.append((i, f"{type(exc).__name__}: {exc}"[:200]))
        secs.append(clock() - t0)
        outs.append(out)
        if speed is not None:
            speed.tick(secs[-1])
    return outs, secs, errors


def _measure(wl, sp, cases, seconds: float, tracer=None, speed=None):
    """Whole rounds until the round boundary nearest to ``seconds``.

    Returns the first round's outputs, every operation's duration, the
    first round's errors, the number of rounds, the number of failed
    operations in all rounds and whether every later round reproduced
    the first exactly."""
    first, durations, errors = _run_round(wl, sp, cases, tracer, speed)
    rounds, failed, same = 1, len(errors), True
    elapsed = sum(durations)
    while elapsed + elapsed / rounds / 2 < seconds:
        outs, secs, errs = _run_round(wl, sp, cases, tracer, speed)
        same = same and outs == first
        durations += secs
        elapsed += sum(secs)
        rounds += 1
        failed += len(errs)
    return first, durations, errors, rounds, failed, same


def _check(wl, cases, outs, errors):
    """Oracle verdict on the first round; returns (correct, letters, nodes)."""
    failed = {i for i, _ in errors}
    letters, nodes = [], []
    for i, (case, out) in enumerate(zip(cases, outs)):
        if i in failed:
            continue
        try:
            n_letters, n_nodes = wl.check(case, out)
        except Exception as exc:
            print(f"bench: case {i} failed the oracle: {exc}", file=sys.stderr)
            return False, [], []
        letters.append(n_letters)
        nodes.append(n_nodes)
    return True, letters, nodes


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    sp = workloads.program_modules()

    if args.trace:
        return _traced(wl, sp, args)

    cases, setup_times = _setups(wl, sp, args.seed)
    speed = HostSpeed()
    first, durations, errors, rounds, failed, same = _measure(
        wl, sp, cases, args.seconds, speed=speed
    )
    # read before the oracle runs, so that its work does not count
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, letters, nodes = _check(wl, cases, first, errors)
    correct = correct and same and bool(letters)

    n = len(cases)
    attempted = n * rounds
    # operations of the >4,300-digit member slice are attempted and counted,
    # but kept out of the timings, so that fixing them moves only `failed`
    scaled = speed.scaled(durations)
    timed = [d for i, d in enumerate(scaled) if cases[i % n].timed]
    deciles = statistics.quantiles(timed, n=10)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(timed) / sum(timed), "op/s"),
        "op_ms_p50": (1000 * deciles[4], "ms"),
        "op_ms_p90": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (peak_mib, "MiB"),
        "word_letters_mean": (statistics.fmean(letters) if letters else 0.0, "letters/op"),
        "cert_nodes_mean": (statistics.fmean(nodes) if nodes else 0.0, "nodes/op"),
    }
    for i, msg in errors[:3]:
        print(f"bench: case {i} failed: {msg}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed={args.seed} cases={n} rounds={rounds} "
        f"timed_ops={len(timed)} reference_passes={len(speed.samples)} "
        f"reference_ms={1000 * statistics.fmean(speed.samples):.4f} "
        f"scale={sum(scaled) / sum(durations):.4f}",
        file=sys.stderr,
    )
    print(_result(correct, attempted, failed, metrics))
    return 0


def _traced(wl, sp, args) -> int:
    """Per-layer run: a traced set-up (for the sampler's numbers), one
    untraced round as the overhead baseline, then traced rounds."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    cases = wl.setup(sp, args.seed)
    sampling = tracer.sampling_metrics(1)
    tracer.uninstall()

    _, base_secs, *_ = _measure(wl, sp, cases, 0)
    tracer.reset()
    tracer.install()
    try:
        first, durations, errors, rounds, failed, same = _measure(
            wl, sp, cases, args.seconds, tracer
        )
    finally:
        tracer.uninstall()
    correct, _, _ = _check(wl, cases, first, errors)
    correct = correct and same

    ops = len(durations)
    base_ms = 1000 * statistics.fmean(base_secs)
    traced_ms = 1000 * statistics.fmean(durations)
    metrics = tracer.layer_metrics(ops)
    metrics.update(sampling)
    metrics["trace.overhead_ms"] = (traced_ms - base_ms, "ms/op")
    metrics["trace.overhead_pct"] = (100 * (traced_ms - base_ms) / base_ms, "%")
    metrics["trace.spans"] = (len(tracer.span_start), "spans")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(path)
    print(f"bench: {len(tracer.span_start)} spans written to {path}", file=sys.stderr)
    print(_result(correct, len(cases) * rounds, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
