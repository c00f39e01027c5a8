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

Each report must also equal, byte for byte, the one
``oracles.object_path_report`` builds for the same cycle, seed and trial
count from successive full repairs summed through the object path; so a
later trial that replays trial 1's repair must give what a full repair
gives.  The first report that differs ends the run with exit 1 and its
name.
"""

from __future__ import annotations

import hashlib

from extbloch.chainio import dumps_canonical
from extbloch.chains import conjugate_chain
from extbloch.core import GroupElement
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import ccs_value

from oracles import object_path_report

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
    corpus), every seed and every trial count.  Raises SystemExit naming
    the first report that differs from ``object_path_report``'s."""
    h, count = hashlib.sha256(), 0
    for name, cycle in (corpus() if cycles is None else cycles):
        for seed in seeds:
            for k in trials:
                label = f"{name} seed={seed} trials={k}"
                text = dumps_canonical(
                    ccs_value(cycle, seed=seed, trials=k).as_dict())
                if text != dumps_canonical(
                        object_path_report(cycle, seed, k).as_dict()):
                    raise SystemExit(
                        f"{label}: the report differs from object_path_report")
                h.update(f"{label}\n".encode())
                h.update(text.encode())
                count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    hexdigest, count = digest()
    print(f"{hexdigest}  {count} reports")
