"""End-to-end and per-layer benchmark of extbloch's ``ccs eval`` path.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload deep-single --seed 1 --seconds 40 --trace 0

Workloads (see ``benchlib/workloads.py``), both in this process:

    deep-single   ``ccs eval <file> --trials 1`` through ``cli.main``,
                  certificate-bound
    many-trials   ``ccs_value(c, seed, trials=10)``, fast-path-bound

The program is imported from ``src/`` of the checkout; inputs are generated
from ``--seed`` with the public fixtures.  Every operation is checked against
ground truth (torsion n gives -2/n mod 1, boundaries give 0, conjugation
keeps the value; |Im| <= 1e-6, trial deviation <= 1e-7).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sizes the list
for half the seconds and runs each round twice, untraced and then with every
layer wrapped from outside; it asserts that both give bit-identical values,
prints the per-layer metrics and writes the spans to ``perfbench/out/``.

Between rounds the run times a few fresh interpreters with and without
``import extbloch``; their difference is ``import_s``, which is printed and
counted in ``setup_s`` together with the median of three fixture builds.

The host's pace drifts, so every end-to-end time is read at a nominal pace:
a reference kernel is timed before and after every operation and fixture
build, and each time is scaled by the nominal kernel time over the kernel
time around it (``benchlib/pace.py``).  ``import_s``, taken in fresh
interpreters, stays as measured.  The times as measured are printed above
the result line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every operation passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

from benchlib import stats
from benchlib.layers import DETERMINISTIC, HOOKS, PER_LAYER, layer_values
from benchlib.pace import NOMINAL_S, Pace, scaled
from benchlib.tracing import Tracer, installed
from benchlib.workloads import (WORKLOADS, ImportProbe, build_operations,
                                by_round, closed_loop, rounds_for,
                                run_cli_in_process, run_in_process,
                                subprocess_env, write_chain_files)

SETUP_REPEATS = 3
IMPORT_PROBES = 8  # probe pairs per run, spread over its rounds

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("bar_terms_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
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
    return "unknown"


def environment(root: Path, args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, units: list[tuple[str, str]]) -> str:
    metrics = {}
    for name, unit in units:
        v = values[name]
        metrics[name] = {"value": v if math.isfinite(v) else None,
                         "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def report_failures(ops, outcomes) -> int:
    failed = 0
    for op, o in zip(ops, outcomes):
        if o.error is not None:
            failed += 1
            print(f"FAILED op {op.index} ({op.kind} {op.size}): {o.error}")
    return failed


def _executor(eb, workload):
    if workload.cli:
        return lambda op: run_cli_in_process(eb, op)
    return lambda op: run_in_process(eb, op)


def measured_run(eb, workload, ops, env, root, setup_s,
                 pace) -> tuple[int, dict]:
    """Rounds one after another, with import probes between them; latency
    percentiles are over every operation of the run.  Each operation's time
    is read at the nominal host pace by the kernel samples around it
    (``benchlib/pace.py``); the times as measured are printed beside.
    ``setup_s`` holds fixture builds already read that way."""
    execute = _executor(eb, workload)
    rounds = by_round(ops)
    probe = ImportProbe(env, root)
    outcomes, measured_wall = [], 0.0
    for batch in rounds:
        outs, round_wall = closed_loop(batch, execute, pace=pace)
        outcomes += outs
        measured_wall += round_wall
        probe.sample(math.ceil(IMPORT_PROBES / len(rounds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # fresh interpreters do not follow the kernel's pace (correlation ~0.3
    # against ~0.9 for in-process work), so import_s stays as measured
    import_s = probe.cost()

    failed = report_failures(ops, outcomes)
    times = [scaled(o.latency_s, o.pace_s) for o in outcomes]
    wall = sum(times)
    bad = [o.error is not None for o in outcomes]
    lat = stats.latencies_with_failures(times, bad)
    measured_lat = stats.latencies_with_failures(
        [o.latency_s for o in outcomes], bad)
    tail = stats.tail(lat)
    done_terms = sum(op.bar_terms * op.trials
                     for op, o in zip(ops, outcomes) if o.error is None)
    values = {
        "setup_s": import_s + stats.median(setup_s),
        "wall_s": wall,
        "latency_p50_s": stats.median(lat),
        "latency_tail_s": tail.value,
        "bar_terms_per_s": done_terms / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"fail_ratio = {failed}/{len(ops)} = {failed / len(ops):.4g}")
    print(f"latency_tail_s is {tail.describe()}")
    # import time flips between levels ~30% apart for a minute at a time on
    # a shared box, so it is reported here and in the trace, not gated
    print(f"import_s = {import_s} s, from {len(probe.full)} probe pairs")
    print(f"setup_s = import_s + median of {len(setup_s)} fixture builds "
          f"at nominal pace {[round(t, 4) for t in setup_s]}")
    print(f"pace: reference kernel {stats.median(pace.samples)} s median "
          f"over {len(pace.samples)} samples, nominal {NOMINAL_S} s")
    print("as measured: " + json.dumps({
        "wall_s": measured_wall,
        "latency_p50_s": stats.median(measured_lat),
        "latency_tail_s": stats.tail(measured_lat).value,
        "bar_terms_per_s": done_terms / measured_wall,
    }))
    return failed, values


def traced_run(eb, workload, ops, env, root, out_dir, header) -> tuple[int, dict]:
    """Each round runs untraced, then traced; the values must agree bit for
    bit."""
    execute = _executor(eb, workload)
    tracer = Tracer()

    def traced_execute(op):
        with tracer.span("op", op=op.index):
            return execute(op)

    rounds = by_round(ops)
    probe = ImportProbe(env, root)
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    for batch in rounds:
        outs, wall = closed_loop(batch, execute)
        plain += outs
        plain_wall += wall
        with installed(tracer, HOOKS):
            outs, wall = closed_loop(batch, traced_execute)
        traced += outs
        traced_wall += wall
        probe.sample(math.ceil(IMPORT_PROBES / len(rounds)))

    failed = 0
    for op, a, b in zip(ops, plain, traced):
        error = a.error or b.error
        if error is None and _bits(a.value) != _bits(b.value):
            error = (f"traced value {_bits(b.value)} differs from "
                     f"untraced {_bits(a.value)}")
        if error is not None:
            failed += 1
            print(f"FAILED op {op.index} ({op.kind} {op.size}): {error}")

    import_s = probe.cost()
    values = layer_values(tracer, traced_wall, plain_wall, import_s,
                          imports=len(ops) if workload.cli else 1)
    spans_path = out_dir / f"trace-{workload.name}-seed{header['seed']}.jsonl"
    tracer.write(spans_path, dict(header, absent=tracer.absent,
                                  calls=dict(tracer.calls),
                                  counts=dict(tracer.counts)))
    print(f"untraced wall {plain_wall:.4f} s, traced wall {traced_wall:.4f} s")
    print("absent hooks: " + (", ".join(tracer.absent) or "none"))
    print("deterministic counts: " + ", ".join(
        f"{name}={values[name]}" for name in DETERMINISTIC))
    print(f"spans written to {spans_path.relative_to(root)} "
          f"({sum(s is not None for s in tracer.spans)} kept)")
    return failed, values


def _bits(value: complex | None):
    return None if value is None else (value.real.hex(), value.imag.hex())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "extbloch" / "__init__.py").is_file():
        print(f"error: no extbloch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import extbloch
    import extbloch.chainio
    import extbloch.cli
    if Path(extbloch.__file__).resolve().parent != (src / "extbloch").resolve():
        print(f"error: imported extbloch from {extbloch.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    header = environment(root, args)
    print("env " + json.dumps(header, sort_keys=True))
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = subprocess_env(src)
    # a traced run has no tail percentile and runs every round twice
    rounds = (rounds_for(workload, args.seconds / 2, min_ops=0) if args.trace
              else rounds_for(workload, args.seconds))

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        # each build is read at the pace of the kernel samples around it
        pace = Pace()
        before = pace.sample()
        setup_s = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = build_operations(extbloch, workload, args.seed, rounds)
            if workload.cli:
                files = Path(tmp) / f"setup{k}"
                files.mkdir()
                ops = write_chain_files(extbloch, ops, files)
            elapsed = time.perf_counter() - t0
            after = pace.sample()
            setup_s.append(scaled(elapsed, (before + after) / 2))
            before = after
        print(f"{len(ops)} operations in {rounds} rounds of "
              f"{len(workload.shape)}, trials={workload.trials}")
        if args.trace:
            failed, values = traced_run(extbloch, workload, ops, env, root,
                                        out_dir, header)
            units = PER_LAYER
        else:
            failed, values = measured_run(extbloch, workload, ops, env, root,
                                          setup_s, pace)
            units = END_TO_END

    for name, unit in units:
        print(f"{name} = {values[name]} {unit}")
    print(result_line(failed == 0, len(ops), failed, values, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
