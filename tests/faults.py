"""Planted faults, each run through tier-1: which does the suite catch?

A fault is (id, file, old text, new text, stage): ``old``, which must
occur once in ``file``, replaced by ``new``; every stage of ``STAGES`` has
one.  ``--check`` checks that in seconds.  A run copies the tree to a
temporary directory and runs tier-1 on it, then on a fresh copy per
fault, one run at a time, without ``-x``: a failure, or a run past
``TIMEOUT_S`` (its processes killed), catches the fault.  It records under
``--label`` in ``--out`` the commit, Python, platform and CPU count, and
per fault the failing tests and seconds, a survivor with its ``NOTES``
entry, and writes nothing else in the checkout.  A test is retired or
restated only when a run shows every fault it caught still caught.

    python tests/faults.py --check
    python tests/faults.py [--label L] [--out FAULTS_2.json] [--commit C]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180.0  # a tier-1 run takes about 25 s

# the north star's stages of an evaluation
STAGES = ("cycle check", "cone repair", "certificate", "v sampling", "psi_v",
          "sigma_hat", "covering point", "normalization", "lhat sum")

CHAINS, COVERING, CORE, QUANTIZE, DILOG, PIPELINE, FORMAL, CHAINIO = (
    f"src/extbloch/{m}.py" for m in ("chains", "covering", "core", "quantize",
                                     "dilog", "pipeline", "formal", "chainio"))

FAULTS = [
    # the seven of ROADMAP item 13
    ("face-sign", CHAINS, "acc[face] = get(face, 0) + coeff * _SIGNS[n]",
     "acc[face] = get(face, 0) - coeff * _SIGNS[n]", "cycle check"),
    ("bernoulli-term-dropped", DILOG, "-9.185773074661964e-08", "0.0",
     "lhat sum"),
    ("index-last-match", QUANTIZE, "for ident in bucket:",
     "for ident in reversed(bucket):", "symbol table"),
    ("real-tol-1e6", COVERING, "REAL_TOL = 1e-12", "REAL_TOL = 1e-6",
     "covering point"),
    ("odd-branch-accepted", COVERING, "    if p % 2:\n",
     "    if p % 2 and False:\n", "covering point"),
    ("edge-by-last-pair", CHAINS, "                    x = at.get(e)\n",
     "                    x = at.get(e)\n"
     "                    if x is not None:\n"
     "                        firsts[x] = len(pairs)\n",
     "sigma_hat"),
    ("bisection-neighbour-dropped", PIPELINE, "for y in res[j - 1:j + 1]:",
     "for y in res[j:j + 1]:", "report"),
    # faults planted by hand in earlier changes (see CHANGES.md), and two
    # in the replay's fallback
    ("edge-equation-sign", COVERING, '("z0z1", ((+1, 2, 0), (-1, 3, 0)',
     '("z0z1", ((+1, 2, 0), (+1, 3, 0)', "sigma_hat"),
    ("w1-w2-swapped", COVERING,
     "return l03 + l12 - l02 - l13, l02 + l13 - l01 - l23, "
     "l01 + l23 - l03 - l12",
     "return l03 + l12 - l02 - l13, l01 + l23 - l03 - l12, "
     "l02 + l13 - l01 - l23",
     "sigma_hat"),
    ("log-inv-cut-correction-dropped", COVERING,
     "(complex(-l1.real, PI) if on_cut else -l1)", "-l1", "covering point"),
    ("extra-plog-per-term", COVERING,
     "        re.append(coeff * value.real)\n",
     "        plog(value + 1.0)\n        re.append(coeff * value.real)\n",
     "lhat sum"),
    ("sign-equiv-strict", CORE, "return ((abs(a - e) <= tol",
     "return ((abs(a - e) < tol", "cone repair"),
    ("sign-equiv-plus-only", CORE, "                or (abs(a + e) <= tol",
     "                or False and (abs(a + e) <= tol", "cone repair"),
    ("clears-margin-shrunk", CHAINS,
     "elements, margin = self.table.elements, config.APEX_MARGIN",
     "elements, margin = self.table.elements, config.APEX_MARGIN / 10",
     "cone repair"),
    ("formed-not-det-checked", CHAINS, "        check_det(a, b, c, d)\n", "",
     "symbol table"),
    ("memo-wrong-id", CHAINS, "self._products.setdefault((i, ident), j)",
     "self._products.setdefault((i, ident), i)", "symbol table"),
    ("guard-neighbour-wrong-side", QUANTIZE,
     "split += ((len(cells), r + 1.0),)", "split += ((len(cells), r - 1.0),)",
     "symbol table"),
    ("index-within-tol-8", QUANTIZE, "reps, tol = self._reps, self.tol",
     "reps, tol = self._reps, self.tol / 8", "symbol table"),
    ("chain-from-obj-ignores-tol", CHAINIO, "    table = SymbolTable(tol)\n",
     "    table = SymbolTable()\n", "input"),
    ("replay-ids-unrenamed", CHAINS, "        yield plan, ids\n",
     "        yield plan, slots\n", "replay"),
    ("replay-slots-moved-one-more", CHAINS,
     "ids = [i if i < base else i + shift for i in slots]",
     "ids = [i if i < base else i + shift + 1 for i in slots]", "replay"),
    ("fallback-plan-replaces-first", CHAINS,
     "            yield full, full.slots\n",
     "            plan, slots, pairs = full, full.slots, []\n"
     "            yield full, full.slots\n",
     "replay"),
    ("fallback-without-rewind", CHAINS, "            draws.rewind()\n", "",
     "replay"),
    ("reuse-outcome-ignored", CHAINS,
     "if rep._clears(elements[ren[a]], [ren[i] for i in b]) != r:",
     "if rep._clears(elements[ren[a]], [ren[i] for i in b]) != r and 0:",
     "replay"),
    ("first-edge-keyed-by-pair", CHAINS, "e = ldiv(*key)", "e = key",
     "sigma_hat"),
    ("replay-pair-test-skipped", CHAINS,
     "if elements[ids[a]].sign_equiv(elements[ids[b]], tol):",
     "if 0 and elements[ids[a]].sign_equiv(elements[ids[b]], tol):", "replay"),
    ("replay-pairs-both-new-only", CHAINS,
     "if slots[a] >= base or slots[b] >= base]",
     "if slots[a] >= base and slots[b] >= base]", "replay"),
    ("replay-pair-test-on-first-ids", CHAINS,
     "if elements[ids[a]].sign_equiv(elements[ids[b]], tol):",
     "if elements[slots[a]].sign_equiv(elements[slots[b]], tol):", "replay"),
    # one more per stage of the north star's list
    ("homotopy-term-dropped", CHAINS,
     "pair = phi, [(d, one + t) for d, t in x]",
     "pair = phi, [(d, one + t) for d, t in x[1:]]", "certificate"),
    ("v-check-loosened", CHAINS,
     "vgood, zero, v1, v2 = config.VGOOD, config.ZERO, v.v1, v.v2",
     "vgood, zero, v1, v2 = config.VGOOD / 1e6, config.ZERO, v.v1, v.v2",
     "v sampling"),
    ("psi-v-transposed", CHAINS,
     "w1, w2 = g.a * v1 + g.b * v2, g.c * v1 + g.d * v2",
     "w1, w2 = g.a * v1 + g.c * v2, g.b * v1 + g.d * v2", "psi_v"),
    ("zero-terms-kept", FORMAL, "for k, t in merged.items() if t[0] != 0}",
     "for k, t in merged.items()}", "normalization"),
    ("trial-sum-not-fsum", COVERING,
     "return math.fsum(re), math.fsum(im), math.fsum(vols)",
     "return sum(re), math.fsum(im), math.fsum(vols)", "lhat sum"),
    # the cone repair's checks and apex decisions, and the z refusal
    ("certificate-check-skipped", CHAINS, "    if residual:\n",
     "    if residual and False:\n", "certificate"),
    ("cone-image-check-skipped", CHAINS, "    _check_good(table, phi_bad)\n",
     "", "cone repair"),
    ("apex-never-reused", CHAINS, "            if cleared:\n",
     "            if cleared and False:\n", "cone repair"),
    ("empty-cone-draws-apex", CHAINS, "                if phi:\n",
     "                if True:\n", "cone repair"),
    ("apex-reused-unchecked", CHAINS,
     "cleared = self._clears(table.elements[apex], ids)", "cleared = True",
     "cone repair"),
    ("apex-attempts-one-more", CHAINS, "for _ in range(APEX_ATTEMPTS):",
     "for _ in range(APEX_ATTEMPTS + 1):", "cone repair"),
    ("homotopy-off-a-drawn-apex", CHAINS,
     "                one = (table.identity,)\n",
     "                one = (table.intern(random_sl2(self.rng)),)\n",
     "certificate"),
    ("z-near-1-accepted", COVERING, "    if abs(z - 1.0) <= config.ZERO:\n",
     "    if abs(z - 1.0) <= config.ZERO and False:\n", "covering point"),
]

# why a fault may survive: "equivalent: <why no output can change>" or
# "gap: <the item meant to close it>"
NOTES: dict[str, str] = {}


def check() -> list[str]:
    """What keeps ``FAULTS`` and ``NOTES`` from being planted as listed."""
    problems, ids = [], [f[0] for f in FAULTS]
    for fid, file, old, new, _ in FAULTS:
        path = ROOT / file
        count = path.read_text().count(old) if path.exists() else 0
        if count != 1 or new == old or ids.count(fid) != 1:
            problems.append(f"{fid}: old text occurs {count} times in "
                            f"{file}, new text differs: {new != old}, id "
                            f"listed {ids.count(fid)} times")
    problems += [f"stage {s!r} has no fault" for s in STAGES
                 if s not in {f[4] for f in FAULTS}]
    problems += [f"{fid}: note {note!r}" for fid, note in NOTES.items()
                 if fid not in ids
                 or not note.startswith(("equivalent: ", "gap: "))]
    return problems


def _tier1(tree: Path) -> dict:
    """Tier-1 on ``tree``, in a process group of its own that is killed
    when it ends: caught or not, the failing tests and seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="500")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
           "no:cacheprovider", "--continue-on-collection-errors"]
    start, out, timed_out = time.perf_counter(), "", False
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:  # a timed-out run, and whatever a test left running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    failed = sorted({line.split(" ", 1)[1].split(" - ")[0]
                     for line in out.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    return {"caught": timed_out or proc.returncode != 0, "failed": failed,
            "seconds": round(time.perf_counter() - start, 2),
            "timed_out": timed_out}


def _git(*args: str) -> str | None:
    got = subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                         capture_output=True)
    return got.stdout.strip() if got.returncode == 0 else None


def run(label: str, out: Path, commit: str | None) -> dict:
    record = {"label": label, "commit": commit or _git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(_git("status", "--porcelain")),
              "python": platform.python_version(),
              "platform": platform.platform(), "cpus": os.cpu_count(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    start, results = time.perf_counter(), {}
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    "FAULTS_*.json")
    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        tree = Path(tmp) / "tree"
        for fault in [None, *FAULTS]:
            shutil.copytree(ROOT, tree, ignore=ignore)
            if fault:
                path = tree / fault[1]
                path.write_text(path.read_text().replace(fault[2], fault[3]))
            got = _tier1(tree)
            shutil.rmtree(tree)
            if not fault:
                record["unfaulted"] = got
                if got["caught"]:
                    sys.exit(f"tier-1 fails on the unfaulted tree: {got}")
                continue
            if not got["caught"]:
                got["note"] = NOTES.get(fault[0], "MISSING")
            results[fault[0]] = {"stage": fault[4], **got}
            print(f"{fault[0]}: {'caught' if got['caught'] else 'SURVIVED'}"
                  f" ({len(got['failed'])} failed, {got['seconds']} s)",
                  flush=True)
    record.update(results=results, seconds=round(time.perf_counter() - start),
                  survived=[k for k, r in results.items() if not r["caught"]])
    data = json.loads(out.read_text()) if out.exists() else {}
    data = {"faults": [dict(zip(("id", "file", "old", "new", "stage"), f))
                       for f in FAULTS], "notes": NOTES,
            "runs": [*(r for r in data.get("runs", []) if r["label"] != label),
                     record]}
    out.write_text(json.dumps(data, indent=1) + "\n")
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, default=ROOT / "FAULTS_2.json")
    parser.add_argument("--commit", help="the commit of an exported tree")
    args = parser.parse_args()
    if problems := check():
        sys.exit("\n".join(problems))
    if args.check:
        print(f"{len(FAULTS)} faults, every stage covered")
        return
    record = run(args.label, args.out, args.commit)
    print(f"{len(record['results'])} faults, "
          f"{len(record['survived'])} survived, {record['seconds']} s")


if __name__ == "__main__":
    main()
