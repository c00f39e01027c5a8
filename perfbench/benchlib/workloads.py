"""Workload definitions, input generation and the closed loop.

Every workload runs whole rounds of a fixed shape, so the mix of cycle kinds
and sizes is the same for every seed and every length.  Each round has
inputs of its own, so no two operations of a run see the same cycle.
``--seconds`` sets the number of rounds through a nominal round cost, which
makes the list a function of the arguments alone: two commits run identical
lists.  The seed draws the random matrices, the conjugators and the
evaluation seeds.

One client runs one operation at a time; each run is one process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import stats

# largest matrix entry allowed in a conjugated torsion cycle.  Larger
# conjugates trip the absolute determinant check inside internal products
# (about 1% fail at entries 8-16, most at ~100), and a workload must not
# contain operations that fail on the current code.
CONJ_MAX_ENTRY = 4.0

# the acceptance suite's bounds
VALUE_TOL = 1e-6
IMAG_TOL = 1e-6
DEVIATION_TOL = 1e-7

PROBE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    cli: bool  # run through cli.main on chain files, else ccs_value
    shape: tuple[tuple[str, int], ...]  # (kind, size) of each op in a round
    round_s: float  # nominal cost of one round, for sizing the list only


# Why each workload, in the order of BENCHMARK.json:
#
# deep-single: ``ccs eval <file> --trials 1`` through ``cli.main`` in this
#   process.  Every operation parses a chain file, builds and verifies the
#   homotopy certificate, runs the ten-equation diagnostic (chains.homotopy,
#   hom_boundary, sigma_hat over 5-tuple faces) and emits the report.
# many-trials: ``ccs_value(c, seed, trials=10)``; nine of ten trials take the
#   fast path (repair, v sampling, psi_v, sigma_hat, covering points, nu-hat,
#   L-hat).  Torsion cycles share symbols heavily (all powers of one
#   rotation), random boundaries hardly, which exposes caching that only
#   helps repeated symbols.
#
# The machine's speed drifts by tens of percent over seconds, which moves a
# percentile most where it falls between two groups of ops of different
# cost.  The shapes therefore keep the median and the tail inside groups of
# ops of similar cost: many-trials is nearly uniform (torsion 6 and 7 cost
# about what a one-term boundary does), deep-single repeats boundary-2,
# which costs about what torsion 11 and 12 do.
#
# Round costs were measured untraced on a 2-CPU x86-64 box with Python
# 3.11 and numpy 2.4; they only set list lengths and are never reported.
WORKLOADS = {
    w.name: w for w in (
        Workload("deep-single", trials=1, cli=True,
                 shape=tuple(("torsion-conj", n) for n in range(6, 13))
                 + (("boundary", 2),) * 7,
                 round_s=10.0),
        Workload("many-trials", trials=10, cli=False,
                 shape=(("torsion-conj", 6), ("torsion-conj", 7))
                 + (("boundary", 1),) * 3,
                 round_s=5.5),
    )
}

MIN_OPS = 21  # a tail percentile needs ten samples beyond it
MIN_ROUNDS = 3  # import probes and the traced passes spread over rounds


def rounds_for(workload: Workload, seconds: float, min_ops: int = MIN_OPS) -> int:
    return max(MIN_ROUNDS, math.ceil(min_ops / len(workload.shape)),
               round(seconds / workload.round_s))


@dataclass(frozen=True)
class Operation:
    index: int
    round: int
    kind: str
    size: int
    cycle: object  # extbloch BarChain
    expected: float  # value mod 1
    trials: int
    seed: int
    path: str | None = None  # chain file, command-line workloads only

    @property
    def bar_terms(self) -> int:
        return len(self.cycle)


@dataclass
class Outcome:
    latency_s: float
    value: complex | None
    error: str | None  # None when the result passed the correctness gate
    pace_s: float | None = None  # reference kernel time around the op


def torsion_value(n: int) -> float:
    """Ground truth of the rotation cycle for t = R(2 pi / n): -2/n mod 1."""
    return (-2.0 / n) % 1.0


def _conjugated(eb, rng, n: int):
    base = eb.torsion_cycle(n)
    while True:
        g = eb.core.random_sl2(rng)
        cycle = eb.conjugate_chain(g, base)
        if max(h.max_abs() for _, sym in cycle for h in sym) <= CONJ_MAX_ENTRY:
            return cycle


def build_operations(eb, workload: Workload, seed: int,
                     rounds: int) -> list[Operation]:
    """The operation list: ``rounds`` copies of the workload's shape with
    inputs drawn from ``seed``.  ``eb`` is the imported extbloch package."""
    ops = []
    for r in range(rounds):
        for kind, size in workload.shape:
            index = len(ops)
            rng = np.random.default_rng([seed, index])
            if kind == "torsion-conj":
                cycle, expected = _conjugated(eb, rng, size), torsion_value(size)
            elif kind == "boundary":
                cycle, expected = eb.random_boundary_cycle(rng, size), 0.0
            else:
                raise ValueError(f"unknown kind {kind}")
            ops.append(Operation(index, r, kind, size, cycle, expected,
                                 workload.trials, int(rng.integers(2**31))))
    return ops


def by_round(ops: list[Operation]) -> list[list[Operation]]:
    rounds: dict[int, list[Operation]] = {}
    for op in ops:
        rounds.setdefault(op.round, []).append(op)
    return list(rounds.values())


def write_chain_files(eb, ops: list[Operation], directory: Path):
    """Write every cycle as a chain file; returns the ops with paths set."""
    out = []
    for op in ops:
        path = directory / f"op{op.index:04d}-{op.kind}-{op.size}.json"
        eb.chainio.write_json(eb.chainio.chain_to_obj(op.cycle), None, str(path))
        out.append(dataclasses.replace(op, path=str(path)))
    return out


# ---------------------------------------------------------------------------
# correctness gate


def circle_distance(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def check(value: complex, deviation: float, expected: float) -> str | None:
    """None when the value passes the acceptance suite's bounds."""
    if not circle_distance(value.real, expected) <= VALUE_TOL:
        return f"value {value.real!r} is not {expected!r} mod 1"
    if not abs(value.imag) <= IMAG_TOL:
        return f"imaginary part {value.imag!r} exceeds {IMAG_TOL}"
    if not deviation <= DEVIATION_TOL:
        return f"trial deviation {deviation!r} exceeds {DEVIATION_TOL}"
    return None


def _from_report_text(text: str, op: Operation) -> tuple[complex | None, str | None]:
    try:
        doc = json.loads(text)
        value = complex(*doc["value"])
        deviation = float(doc["max_trial_deviation"])
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report ({exc})"
    return value, check(value, deviation, op.expected)


# ---------------------------------------------------------------------------
# executing one operation


def cli_argv(op: Operation) -> list[str]:
    return ["eval", op.path, "--trials", str(op.trials), "--seed", str(op.seed)]


def run_in_process(eb, op: Operation) -> Outcome:
    """ccs_value on the cycle, looked up at call time so a traced run sees
    the wrapped name."""
    t0 = time.perf_counter()
    try:
        report = eb.ccs_value(op.cycle, seed=op.seed, trials=op.trials)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(time.perf_counter() - t0, None,
                       f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    value = report.value_mod1
    return Outcome(latency, value,
                   check(value, report.max_trial_deviation, op.expected))


def run_cli_in_process(eb, op: Operation) -> Outcome:
    """``cli.main(argv)`` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = eb.cli.main(cli_argv(op))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(time.perf_counter() - t0, None,
                       f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    if code != 0:
        return Outcome(latency, None,
                       f"exit {code}: {err.getvalue().strip()[-200:]}")
    value, error = _from_report_text(out.getvalue(), op)
    return Outcome(latency, value, error)


def closed_loop(ops: list[Operation], execute,
                pace=None) -> tuple[list[Outcome], float]:
    """One operation at a time; returns the outcomes and the wall time.
    With a ``pace`` (``benchlib.pace.Pace``) its kernel is timed before the
    first operation and after every one, outside the wall time, and each
    outcome gets the mean of the two samples around it."""
    outcomes = []
    wall = 0.0
    before = pace.sample() if pace is not None else None
    for op in ops:
        t0 = time.perf_counter()
        outcome = execute(op)
        wall += time.perf_counter() - t0
        if pace is not None:
            after = pace.sample()
            outcome.pace_s = (before + after) / 2
            before = after
        outcomes.append(outcome)
    return outcomes, wall


def subprocess_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class ImportProbe:
    """Wall time of ``import extbloch`` in a fresh interpreter minus that of
    a bare interpreter start.  Probes alternate and are taken a few at a
    time between rounds, so they spread over the whole run; the cost is the
    difference of the interquartile means."""

    def __init__(self, env: dict, cwd: Path):
        self.env, self.cwd = env, cwd
        self.bare: list[float] = []
        self.full: list[float] = []

    def sample(self, pairs: int) -> None:
        for _ in range(pairs):
            for code, sink in (("pass", self.bare),
                               ("import extbloch", self.full)):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env,
                               cwd=self.cwd, check=True, timeout=PROBE_TIMEOUT_S,
                               stdout=subprocess.DEVNULL)
                sink.append(time.perf_counter() - t0)

    def cost(self) -> float:
        return (stats.interquartile_mean(self.full)
                - stats.interquartile_mean(self.bare))
