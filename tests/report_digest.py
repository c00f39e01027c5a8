"""sha256 of the canonical reports of a fixed corpus of evaluations.

Run as ``PYTHONPATH=src python tests/report_digest.py``.  It evaluates
every corpus cycle with ``ccs_value`` at seeds 0, 7 and 11 and 1, 2 and 10
trials, and hashes the ``dumps_canonical`` text of each report in order;
a change that keeps every id, boolean and float of an evaluation keeps the
digest.  The corpus: torsion cycles n = 2..24 and 48, boundaries
``random_boundary_cycle(k, n_terms=k)`` for k = 1..32, torsion 7
conjugated by (3, 0.3; 0, 1/3), and ``five_term_boundary(0.5, 0.25)``.
The value depends on the platform's libm, so compare digests made on one
host only.

With ``--full-repairs`` every replay of the first trial's repair gives up
at once (``chains._replay`` is swapped for ``give_up``), so every later
trial repairs in full; a replay that is right gives the same reports, so
the two digests must be equal.  Either way, a last line on stderr counts
the later trials that replayed and those that fell back to a full repair,
so that two equal digests can be told from a run where no replay held.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from extbloch import chains
from extbloch.chainio import dumps_canonical
from extbloch.chains import conjugate_chain
from extbloch.core import GroupElement
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import ccs_value

SEEDS = (0, 7, 11)
TRIALS = (1, 2, 10)


def corpus():
    """(name, cycle) for every corpus cycle, in digest order."""
    for n in (*range(2, 25), 48):
        yield f"torsion {n}", torsion_cycle(n)
    for k in range(1, 33):
        yield f"boundary {k}", random_boundary_cycle(k, n_terms=k)
    yield "torsion 7 conjugated", conjugate_chain(
        GroupElement(3, 0.3, 0, 1 / 3), torsion_cycle(7))
    yield "five-term", five_term_boundary(0.5, 0.25)


def digest(cycles=None, seeds=SEEDS, trials=TRIALS) -> tuple[str, int]:
    """(hex sha256, number of reports) over ``cycles`` (default: the
    corpus), every seed and every trial count."""
    h, count = hashlib.sha256(), 0
    for name, cycle in (corpus() if cycles is None else cycles):
        for seed in seeds:
            for k in trials:
                report = ccs_value(cycle, seed=seed, trials=k)
                h.update(f"{name} seed={seed} trials={k}\n".encode())
                h.update(dumps_canonical(report.as_dict()).encode())
                count += 1
    return h.hexdigest(), count


def give_up(*args):
    """A stand-in for ``chains._replay`` that gives up at once: the trial
    repairs in full on the same draws."""
    return None


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full-repairs", action="store_true",
                        help="repair every trial in full, replaying none")
    replay = give_up if parser.parse_args().full_repairs else chains._replay
    gave_up = []  # per later trial: whether its replay gave up

    def counted(*args):
        shift = replay(*args)
        gave_up.append(shift is None)
        return shift

    chains._replay = counted
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} reports")
    print(f"{gave_up.count(False)} later trials replayed, "
          f"{gave_up.count(True)} fell back", file=sys.stderr)
