import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extbloch import selftest
from extbloch.chainio import chain_to_obj, dumps_canonical, parse_cycle_file
from extbloch.chains import is_cycle
from extbloch.cli import build_parser, main
from extbloch.errors import DeterminantError, SchemaError
from extbloch.fixtures import torsion_cycle


def _run(*args, **kw):
    return subprocess.run([sys.executable, "-m", "extbloch.cli", *args],
                          capture_output=True, text=True, **kw)


def test_chain_round_trip_bit_exact(tmp_path):
    chain = torsion_cycle(3)
    path = tmp_path / "t3.json"
    path.write_text(dumps_canonical(chain_to_obj(chain)))
    back = parse_cycle_file(str(path))
    assert back.degree == chain.degree
    for (c1, s1), (c2, s2) in zip(chain, back):
        assert c1 == c2
        for g1, g2 in zip(s1, s2):
            assert g1.entries() == g2.entries()  # bit-exact floats


def test_parse_rejects_bad_determinant(tmp_path):
    doc = {"group": "SL2C", "degree": 1,
           "terms": [{"coef": 1,
                      "bar": [[[2, 0], [0, 0], [0, 0], [1, 0]]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DeterminantError) as err:
        parse_cycle_file(str(path))
    assert "term 0" in str(err.value)


def test_parse_rejects_schema_violations(tmp_path):
    path = tmp_path / "bad.json"
    for doc in (
        [],  # not an object
        {"group": "SL2R", "degree": 1, "terms": []},
        {"group": "SL2C", "degree": "x", "terms": []},
        {"group": "SL2C", "degree": 1, "terms": [{"coef": 1.5, "bar": []}]},
        {"group": "SL2C", "degree": 2,
         "terms": [{"coef": 1, "bar": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}]},
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            parse_cycle_file(str(path))


def test_empty_chain_is_cycle(tmp_path):
    doc = {"group": "SL2C", "degree": 3, "terms": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    chain = parse_cycle_file(str(path))
    ok, _ = is_cycle(chain)
    assert ok and chain.is_empty()


def test_empty_chain_evaluates_to_zero(tmp_path):
    from extbloch.pipeline import ccs_value
    from extbloch.chains import BarChain
    rep = ccs_value(BarChain(3, []), seed=0, trials=2)
    assert rep.value_mod1 == 0
    assert rep.volume == 0.0


def test_canonical_floats_lossless():
    vals = [0.1, 1.0 / 3.0, 2.0, -1.2345678901234567e-8]
    text = dumps_canonical({"v": vals})
    parsed = json.loads(text)
    assert parsed["v"] == vals


def test_cli_torsion_eval_round_trip(tmp_path):
    fixture = tmp_path / "t3.json"
    r = _run("torsion", "--n", "3", "--out", str(fixture))
    assert r.returncode == 0
    r = _run("check-cycle", str(fixture))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["is_cycle"] and doc["terms"] == 3

    r = _run("eval", str(fixture), "--seed", "1", "--trials", "2")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert abs(3 * rep["value"][0] - round(3 * rep["value"][0])) < 1e-6
    assert abs(rep["value"][1]) < 1e-6
    assert len(rep["trials"]) == 2


def test_cli_determinism(tmp_path):
    fixture = tmp_path / "t4.json"
    _run("torsion", "--n", "4", "--out", str(fixture))
    r1 = _run("eval", str(fixture), "--seed", "7", "--trials", "2")
    r2 = _run("eval", str(fixture), "--seed", "7", "--trials", "2")
    assert r1.stdout == r2.stdout  # byte-identical reports



def test_cli_main_twice_in_one_process(tmp_path, capsys):
    # the parser is built once per process; neither a call's options nor an
    # argparse error carries over to the next call
    assert build_parser() is build_parser()
    path = tmp_path / "t3.json"
    path.write_text(dumps_canonical(chain_to_obj(torsion_cycle(3))))
    assert main(["eval", str(path), "--seed", "5", "--trials", "2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert (first["seed"], first["trials_requested"]) == (5, 2)
    assert main(["eval", str(path)]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert (plain["seed"], plain["trials_requested"]) == (0, 5)
    with pytest.raises(SystemExit) as stop:
        main(["eval", str(path), "--trials", "0"])
    assert stop.value.code == 2
    capsys.readouterr()
    assert main(["eval", str(path), "--trials", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["trials"]) == 1


def test_cli_exit_codes(tmp_path):
    missing = tmp_path / "missing.json"
    for command in ("eval", "check-cycle"):
        r = _run(command, str(missing))
        assert r.returncode == 4
        assert r.stderr.startswith("error:") and str(missing) in r.stderr
        assert "Traceback" not in r.stderr
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "group": "SL2C", "degree": 3,
        "terms": [{"coef": 1, "bar": [[[2, 0], [0, 0], [0, 0], [1, 0]]] * 1}]}))
    r = _run("check-cycle", str(bad))
    assert r.returncode == 2
    # a valid chain that is not a cycle
    notcycle = tmp_path / "notcycle.json"
    notcycle.write_text(dumps_canonical(chain_to_obj(
        __import__("extbloch.chains", fromlist=["BarChain"]).BarChain(
            3, [(1, (torsion_cycle(3).terms[0][1]))]))))
    r = _run("check-cycle", str(notcycle))
    assert r.returncode == 2


@pytest.mark.parametrize("matrix", [
    [[math.nan, 0], [0, 0], [0, 0], [1, 0]],
    [[math.inf, 0], [1, 0], [-1, 0], [0, 0]],
])
@pytest.mark.parametrize("command", ["check-cycle", "eval"])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, matrix, command):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"group": "SL2C", "degree": 1,
                                "terms": [{"coef": 1, "bar": [matrix]}]}))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "term 0, matrix 0" in err


@pytest.mark.parametrize("argv, reason", [
    (["eval", "{cycle}", "--trials", "0"], "argument --trials: must be at least 1"),
    (["eval", "{cycle}", "--tolerance", "0"], "argument --tolerance: tolerance cmp"),
    (["eval", "{cycle}", "--tolerance", "-1"], "argument --tolerance: tolerance cmp"),
    (["eval", "{cycle}", "--tolerance", "nan"], "argument --tolerance: tolerance cmp"),
    (["check-cycle", "{cycle}", "--tolerance", "inf"],
     "argument --tolerance: tolerance cmp"),
    (["torsion", "--n", "1"], "argument --n: must be at least 2"),
    (["real-check", "--samples", "0"], "argument --samples: must be at least 1"),
    (["eval", "{cycle}", "--seed", "-1"],
     "argument --seed: must be at least 0, got -1"),
    (["five-term", "--x", "0.5", "--y", "0.25", "--verify", "--seed", "-1"],
     "argument --seed: must be at least 0, got -1"),
    (["real-check", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["selftest", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    # at a cmp as coarse as the apex margin a cone apex can be identified
    # with an element it avoids
    (["eval", "{cycle}", "--tolerance", "0.3"],
     "argument --tolerance: tolerance cmp must lie in (0, 0.001), got 0.3"),
    (["check-cycle", "{cycle}", "--tolerance", "1e-3"],
     "argument --tolerance: tolerance cmp must lie in (0, 0.001), got 0.001"),
])
def test_cli_rejects_bad_arguments(tmp_path, capsys, argv, reason):
    path = tmp_path / "t3.json"
    path.write_text(dumps_canonical(chain_to_obj(torsion_cycle(3))))
    with pytest.raises(SystemExit) as stop:
        main([a.format(cycle=path) for a in argv])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "error: " + reason in err and "Traceback" not in err


_IDENTITY = [[1, 0], [0, 0], [0, 0], [1, 0]]


@pytest.mark.parametrize("doc, reason", [
    ({"group": "SL2C", "degree": 4, "terms": []},
     "evaluation needs a 3-cycle, got degree 4"),
    ({"group": "SL2C", "degree": True, "terms": []}, "bad degree True"),
    ({"group": "SL2C", "degree": 1, "terms": [{"coef": True, "bar": [_IDENTITY]}]},
     "term 0: coefficient must be an integer"),
    ({"group": "SL2C", "degree": 1,
      "terms": [{"coef": 1, "bar": [[["1", 0], *_IDENTITY[1:]]]}]},
     "term 0, matrix 0: non-numeric entry '1'"),
    ({"group": "SL2C", "degree": 1,
      "terms": [{"coef": 1, "bar": [[[10**400, 0], *_IDENTITY[1:]]]}]},
     "term 0, matrix 0: entry out of range"),
], ids=["degree-4", "bool-degree", "bool-coef", "string-entry", "huge-entry"])
def test_cli_eval_rejects_bad_chain_files(tmp_path, capsys, doc, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    try:
        code = main(["eval", str(path)])
    except SystemExit as stop:
        code = stop.code
    assert code == 2
    assert "error: " + reason in capsys.readouterr().err


def test_cli_check_cycle_rejects_huge_entry(tmp_path, capsys):
    # an integer entry beyond the float range is named, not a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"group": "SL2C", "degree": 1, "terms": [
        {"coef": 1, "bar": [[[1, 0], [0, 0], [-10**400, 0], [1, 0]]]}]}))
    assert main(["check-cycle", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: term 0, matrix 0: entry out of range" in err
    assert "Traceback" not in err


def _torsion5_obj(coef: int) -> dict:
    doc = chain_to_obj(torsion_cycle(5))
    for term in doc["terms"]:
        term["coef"] *= coef
    return doc


@pytest.mark.parametrize("command", ["check-cycle", "eval"])
@pytest.mark.parametrize("coef", [10**400, 10**17 + 1, -(2**53 + 1)],
                         ids=["10**400", "10**17+1", "-(2**53+1)"])
def test_cli_refuses_coefficients_a_float_does_not_hold(tmp_path, capsys,
                                                        command, coef):
    # the trial sums take each coefficient as a float: 10**400 overflowed
    # there and 10**17 + 1 evaluated to a wrong value; both are refused
    # before any evaluation, by check-cycle too, which does not sum
    path = tmp_path / "coef.json"
    path.write_text(json.dumps(_torsion5_obj(coef)))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: term 0: coefficient out of range\n"


def test_cli_takes_coefficients_up_to_2_53(tmp_path, capsys):
    path = tmp_path / "coef.json"
    for coef in (2**53, -(2**53)):
        path.write_text(json.dumps(_torsion5_obj(coef)))
        assert main(["check-cycle", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_cycle"] and doc["terms"] == 5
        assert parse_cycle_file(str(path)).terms[0][0] == coef


@pytest.mark.parametrize("command", ["check-cycle", "eval"])
@pytest.mark.parametrize("text, reason", [
    (b"\xff\xfe\x00" + json.dumps(_torsion5_obj(1)).encode(),
     "not UTF-8 text (invalid start byte at byte 0)"),
    (b"[" * 100000 + b"]" * 100000, "invalid JSON (maximum recursion depth"),
    (b'{"group": "SL2C", "degree": 1, "terms": [{"coef": ' + b"1" * 5000
     + b', "bar": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}]}', ""),
], ids=["utf16", "deep-nesting", "5000-digit-coef"])
def test_cli_refuses_files_json_cannot_read(tmp_path, capsys, command, text,
                                            reason):
    # named with exit 2, not a traceback; the digit limit of int() depends
    # on the Python release, so only the exit and the "error:" prefix of the
    # last case are fixed
    path = tmp_path / "chain.json"
    path.write_bytes(text)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if reason:
        assert err.startswith(f"error: {path}: {reason}")


@pytest.mark.parametrize("command", ["check-cycle", "eval"])
@pytest.mark.parametrize("doc, extra, reason", [
    ({"group": "SL2C", "degree": 1, "terms": [
        {"coef": 1, "bar": [[[1e301, 0], [0, 0], [0, 0], [1e-301, 0]]]}]}, [],
     "value 1e+301 is out of range at comparison tolerance 1e-08"),
    (chain_to_obj(torsion_cycle(3)), ["--tolerance", "1e-310"],
     "value 1.0 is out of range at comparison tolerance 1e-310"),
], ids=["huge-entry", "tiny-tolerance"])
def test_cli_refuses_values_off_the_grid(tmp_path, capsys, command, doc,
                                         extra, reason):
    # x / cmp overflows when keying a group element: named, not a traceback
    path = tmp_path / "chain.json"
    path.write_text(dumps_canonical(doc))
    try:
        code = main([command, str(path), *extra])
    except SystemExit as stop:
        code = stop.code
    assert code == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_cli_tolerance_reaches_cycle_check(tmp_path):
    # torsion 5 with one rotation off by 1e-7 rad: a cycle only when the
    # comparison tolerance identifies the perturbed symbol with the exact one
    from extbloch.chains import BarChain
    from extbloch.core import GroupElement, rotation
    import math
    theta = 2 * math.pi * 2 / 5 + 1e-7
    bent = GroupElement(math.cos(theta), -math.sin(theta),
                        math.sin(theta), math.cos(theta))
    t = rotation(5, 1)
    terms = [(1, (t, bent if i == 2 else rotation(5, i), t)) for i in range(5)]
    path = tmp_path / "bent.json"
    path.write_text(dumps_canonical(chain_to_obj(BarChain(3, terms))))
    r = _run("check-cycle", str(path))
    assert r.returncode == 2
    assert json.loads(r.stdout)["boundary_terms"] > 0
    r = _run("check-cycle", str(path), "--tolerance", "1e-4")
    assert r.returncode == 0
    assert json.loads(r.stdout)["is_cycle"] is True


def test_cli_five_term_verify():
    r = _run("five-term", "--x", "0.5", "--y", "0.25", "--verify")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["is_cycle"]
    assert abs(doc["volume"]) < 1e-8


def test_cli_five_term_emits_parsable_chain(tmp_path):
    out = tmp_path / "ft.json"
    r = _run("five-term", "--x", "(0.3+0.2j)", "--y", "(0.7+0.4j)",
             "--out", str(out))
    assert r.returncode == 0
    chain = parse_cycle_file(str(out))
    ok, _ = is_cycle(chain)
    assert ok


def test_cli_lift_path():
    r = _run("lift-path", "--p0", "2", "--q0", "-1", "--r", "1",
             "--p1", "0", "--q1", "3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["match"] is True
    assert doc["five_term_sum_abs"] < 1e-8


@pytest.mark.parametrize("base, reason", [
    ("0,1j", "x = 0j hits 0 or 1"),
    ("1,1j", "x = (1+0j) hits 0 or 1"),
    ("0.3+1j,0.3+1j", "x = y makes coordinate 2 equal to 1"),
    ("nan,0.5", "x = (nan+0j) is not finite"),
])
def test_cli_lift_path_degenerate_base_exits_2(capsys, base, reason):
    assert main(["lift-path", "--base", base, "--p0", "1"]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("x, y, reason", [
    ("0.5", "1", "y = (1+0j) hits 0 or 1"),
    ("0", "0.5", "x = 0j hits 0 or 1"),
    ("0.5", "0.5", "x = y makes coordinate 2 equal to 1"),
    ("1", "0.5", "x = (1+0j) hits 0 or 1"),
    ("0.5", "0", "y = 0j hits 0 or 1"),
    ("2", "2", "x = y makes coordinate 2 equal to 1"),
    ("nan", "0.5", "x = (nan+0j) is not finite"),
    ("0.5", "inf", "y = (inf+0j) is not finite"),
])
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_cli_five_term_degenerate_parameters_exit_2(capsys, x, y, reason,
                                                    verify):
    # the fixture validates its five-tuple, as lift-path does its base
    assert main(["five-term", "--x", x, "--y", y, *verify]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {reason}\n" and captured.out == ""


def test_cli_lift_path_off_the_five_term_relation_exits_3(capsys):
    # the branches match, but the all-zero start lift is not on the
    # five-term relation at this base
    assert main(["lift-path", "--base", "0.5-1j,0.2+3j", "--p0", "1"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["lifted"] == doc["expected"]
    assert doc["match"] is False and doc["five_term_sum_abs"] > 1


def test_cli_real_check():
    r = _run("real-check", "--samples", "25", "--seed", "3")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["worst_agreement_error"] == 0
    assert doc["all_principal_branch"] is True


def test_selftest_config_draw_redraws_only_degenerate_configs(monkeypatch):
    # a programming error must surface, not be retried with a fresh draw
    real, calls = selftest.ConfigTuple, []

    def broken_once(vectors):
        calls.append(vectors)
        if len(calls) == 1:
            raise TypeError("bug in the constructor")
        return real(vectors)

    monkeypatch.setattr(selftest, "ConfigTuple", broken_once)
    with pytest.raises(TypeError):
        selftest._random_config(selftest.as_rng(0), 4)
    assert len(calls) == 1


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    *([str(p.relative_to(ROOT))] for p in sorted(ROOT.glob("demos/*.py"))),
    ["-m", "extbloch.cli", "selftest"],
    ["-m", "extbloch.cli", "eval", "{torsion}"],
    ["-m", "extbloch.cli", "real-check", "--samples", "5"],
    ["-m", "extbloch.cli", "five-term", "--x", "0.5", "--y", "0.25", "--verify"],
    ["-m", "extbloch.cli", "lift-path"],
], ids=lambda argv: " ".join(argv[2:]) or argv[0])
def test_demos_and_selftest_exit_zero(tmp_path, argv):
    # numpy is not a runtime dependency: a package of that name that fails
    # to import comes first on the path
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(
        "raise ImportError('numpy is not available here')\n")
    torsion = tmp_path / "t5.json"
    torsion.write_text(dumps_canonical(chain_to_obj(torsion_cycle(5))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(ROOT / "src")]))
    r = subprocess.run([sys.executable, *(a.format(torsion=torsion) for a in argv)],
                       cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
