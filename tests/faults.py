"""Planted faults, each run through tier-1: which does the suite catch?

A fault is (id, file, old text, new text, stage): ``old``, which must
occur once in ``file``, replaced by ``new``; every stage of ``STAGES`` has
one, and ``LIST_TEST`` holds the list to ``check``.  Each pytest run gets
a fresh copy of the tree in a temporary directory.  Unfaulted, tier-1
runs, then the catchers: per fault, the tests that the last run of the
highest-numbered ``FAULTS_<n>.json`` records as failing.  Both must pass.
Each fault then runs its catchers with ``-x``, and a FAILED or ERROR
line, or a run past ``TIMEOUT_S`` (its processes killed), catches it;
otherwise (no catcher, none failed, one gone) tier-1 runs in full, and a
failing run or a timeout catches it.  The record under ``--label`` in
``--out`` holds the commit, Python, platform and CPU count, and per fault
what failed, in which run, and the seconds, a survivor with its ``NOTES``
entry; a survivor without one makes the exit status 1.  A test is retired
or restated only when a run on an export without ``FAULTS_*.json`` (all
faults through full tier-1) shows every fault it caught still caught.

    python tests/faults.py --out FAULTS_5.json [--label L] [--commit C]
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
# the tier-1 test of ``check``: it fails on every planted tree, whose old
# text is gone, so fault runs deselect it; the unfaulted run must pass it
LIST_TEST = ("tests/test_invariants.py::"
             "test_the_planted_faults_apply_to_the_tree")

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
    # faults planted by hand in earlier changes (see CHANGES.md), and three
    # in the replay's fallback: its plan, and the apex candidates it is
    # handed
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
    ("fallback-plan-replaces-first", CHAINS,
     "yield _Plan(table, _repair_core(hom, rng, rep.drawn)[1])",
     "yield (plan := _Plan(table, _repair_core(hom, rng, rep.drawn)[1]))",
     "replay"),
    ("fallback-handed-no-candidates", CHAINS,
     "_repair_core(hom, rng, rep.drawn)", "_repair_core(hom, rng)", "replay"),
    ("fallback-handed-later-candidates", CHAINS,
     "_repair_core(hom, rng, rep.drawn)",
     "_repair_core(hom, rng, rep.drawn[1:])", "replay"),
    ("reuse-outcome-ignored", CHAINS, "if rep._clears(elements[a], b) != r:",
     "if rep._clears(elements[a], b) != r and 0:", "replay"),
    ("first-edge-keyed-by-pair", CHAINS, "e = ldiv(*key)", "e = key",
     "sigma_hat"),
    ("replay-pair-test-skipped", CHAINS, "for i, j in pairs:\n            if ",
     "for i, j in pairs:\n            if 0 and ", "replay"),
    ("replay-pairs-both-new-only", CHAINS,
     "if slots[a] >= base or slots[b] >= base]",
     "if slots[a] >= base and slots[b] >= base]", "replay"),
    ("replay-pair-test-on-first-ids", CHAINS,
     "slots, elements, tol = plan.slots, table.elements, table.tol",
     "slots, elements, tol = plan.slots, list(table.elements), table.tol",
     "replay"),
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
    ("cone-image-check-skipped", CHAINS,
     "True)\n    _check_good(table, phi_bad)\n", "True)\n", "cone repair"),
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
    # mutants that once survived tier-1 (ROADMAP item 20)
    ("pair-check-and-or", CHAINIO,
     "and isinstance(s, list) and len(s) == 2):",
     "and isinstance(s, list) or len(s) == 2):", "input"),
    ("tiny-z-log1m-sign", DILOG, "return -z if w == 1.0 else",
     "return z if w == 1.0 else", "lhat sum"),
    ("v-attempts-two-fewer", CHAINS,
     "for attempt in range(1, V_ATTEMPTS + 1):",
     "for attempt in range(1, V_ATTEMPTS - 1):", "v sampling"),
    ("sum-bound-divided", COVERING,
     "bound = SUM_TOL * (1 + abs(w0) + abs(w1))",
     "bound = SUM_TOL / (1 + abs(w0) + abs(w1))", "covering point"),
    # the rewind of a table to its mark before each later trial
    ("rewind-memos-kept", CHAINS, "map(dict, mark[2:])",
     "(self._products, self._quotients, self._translates)", "symbol table"),
    ("rewind-elements-kept", CHAINS, "        del self.elements[mark[0]:]\n",
     "", "symbol table"),
    ("rewind-seen-kept", QUANTIZE, "range(len(self._seen) - seen)", "range(0)",
     "symbol table"),
    ("rewind-buckets-kept", QUANTIZE, "            buckets[ident].pop()\n",
     "            buckets[ident]\n", "symbol table"),
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


def _pytest(tree: Path, *args: str) -> dict:
    """pytest on ``tree`` with ``args``, in a process group of its own that
    is killed when it ends: the tests that failed, and those that passed
    when ``args`` asks for them (``-rA``), the exit code and seconds."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="500")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
           "no:cacheprovider", "--continue-on-collection-errors", *args]
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
    tests = {"FAILED ": set(), "ERROR ": set(), "PASSED ": set()}
    for line in out.splitlines():
        for kind in tests:
            if line.startswith(kind):
                tests[kind].add(line[len(kind):].split(" - ")[0])
    return {"failed": sorted(tests["FAILED "] | tests["ERROR "]),
            "passed": tests["PASSED "], "code": proc.returncode,
            "timed_out": timed_out,
            "seconds": round(time.perf_counter() - start, 2)}


def _catchers(root: Path) -> tuple[str | None, dict[str, list[str]]]:
    """(file and label, failed tests by fault id) of the last run of the
    highest-numbered ``FAULTS_<n>.json`` in ``root``."""
    files = [p for p in root.glob("FAULTS_*.json") if p.stem[7:].isdigit()]
    if not files:
        return None, {}
    path = max(files, key=lambda p: int(p.stem[7:]))
    last = json.loads(path.read_text())["runs"][-1]
    return (f"{path.name} {last['label']}",
            {fid: r["failed"] for fid, r in last["results"].items()})


def _git(*args: str) -> str | None:
    got = subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                         capture_output=True)
    return got.stdout.strip() if got.returncode == 0 else None


def run(label: str, out: Path, commit: str | None) -> dict:
    status = _git("status", "--porcelain")  # None outside a git checkout
    record = {"label": label, "commit": commit or _git("rev-parse", "HEAD"),
              "uncommitted_changes": None if status is None else bool(status),
              "python": platform.python_version(),
              "platform": platform.platform(), "cpus": os.cpu_count(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    source, recorded = _catchers(ROOT)
    start, results = time.perf_counter(), {}
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    "FAULTS_*.json")

    def on_copy(fault, *args: str) -> dict:
        with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=ignore)
            if fault:
                path = tree / fault[1]
                path.write_text(path.read_text().replace(fault[2], fault[3]))
                args = ("--deselect", LIST_TEST, *args)
            return _pytest(tree, *args)

    got = on_copy(None, "-rA")
    if got["code"] != 0 or got["timed_out"] or LIST_TEST not in got["passed"]:
        sys.exit(f"tier-1 fails unfaulted, or lacks {LIST_TEST}: "
                 f"{got['failed']}")
    # a recorded catcher that tier-1 no longer passes is not run
    catchers = {f[0]: [t for t in recorded.get(f[0], []) if t in got["passed"]]
                for f in FAULTS}
    union = sorted({t for tests in catchers.values() for t in tests})
    record.update(unfaulted_s=got["seconds"], catchers_from=source,
                  catchers=len(union))
    if union:
        got = on_copy(None, *union)
        if got["code"] != 0 or got["timed_out"]:
            sys.exit(f"catchers fail on the unfaulted tree: {got['failed']}")
        record["catchers_s"] = got["seconds"]
    for fault in FAULTS:
        got, spent = {"caught": False, "seconds": 0.0}, 0.0
        if tests := catchers[fault[0]]:
            got = on_copy(fault, "-x", *tests)
            got.update(caught=bool(got["failed"]) or got["timed_out"],
                       run="catchers")
        if not got["caught"]:  # tier-1 in full decides
            spent = got["seconds"]
            got = on_copy(fault)
            got.update(caught=got["code"] != 0 or got["timed_out"],
                       run="tier-1")
        results[fault[0]] = result = {
            "stage": fault[4], "caught": got["caught"], "run": got["run"],
            "failed": got["failed"], "timed_out": got["timed_out"],
            "seconds": round(spent + got["seconds"], 2)}
        if not got["caught"]:
            result["note"] = NOTES.get(fault[0], "MISSING")
        print(f"{fault[0]}: {'caught' if got['caught'] else 'SURVIVED'} by "
              f"{got['run']} ({len(got['failed'])} failed, "
              f"{result['seconds']} s)", flush=True)
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
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--commit", help="the commit of an exported tree")
    args = parser.parse_args()
    if problems := check():
        sys.exit("\n".join(problems))
    record = run(args.label, args.out, args.commit)
    unnoted = [k for k in record["survived"] if k not in NOTES]
    print(f"{len(record['results'])} faults, {len(record['survived'])} "
          f"survived, {len(unnoted)} without a note, {record['seconds']} s")
    if unnoted:
        sys.exit(f"survived without a note: {', '.join(unnoted)}")

if __name__ == "__main__":
    main()
