import cmath
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from extbloch import chains, pipeline, selftest
from extbloch.chainio import (_write_chain, chain_from_obj, chain_to_obj,
                              dumps_canonical, emit_report, parse_cycle_file)
from extbloch.chains import (APEX_ATTEMPTS, BarChain, bar_boundary,
                             conjugate_chain, is_cycle,
                             repair_with_certificate)
from extbloch.cli import MAX_TORSION_N, MAX_TURNS, build_parser, main
from extbloch.core import GroupElement, random_sl2
from extbloch.errors import CcsError, DeterminantError, NotACycle, SchemaError
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import ccs_value, lambda_hat

import report_digest
import spherical
from conftest import large_conjugate, mod1_dist, small_conjugate
from oracles import fmt_reference


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


def test_cli_eval_of_the_empty_cycle_prints_plus_zero(tmp_path, capsys):
    # every real part is reduced into [0, 1), so no -0 is printed
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"group": "SL2C", "degree": 3, "terms": []}))
    assert main(["eval", str(path), "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert '"value": [0, 0]' in out and "-0" not in out
    assert json.loads(out)["trials"] == [[0, 0], [0, 0]]


def test_canonical_floats_lossless():
    vals = [0.1, 1.0 / 3.0, 2.0, -1.2345678901234567e-8]
    text = dumps_canonical({"v": vals})
    parsed = json.loads(text)
    assert parsed["v"] == vals


_SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                   -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   0.1, 1e16, 1e-7, 123456789012345680.0)


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


def _random_float(rng):
    """A special value, a float of any bit pattern (NaN, subnormal and
    infinite ones included) or a float near 1."""
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(_SPECIAL_FLOATS)
    if pick < 0.6:
        bits = rng.getrandbits(64).to_bytes(8, "little")
        return struct.unpack("<d", bits)[0]
    return rng.uniform(-4.0, 4.0)


def _random_leaf(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice((0, 1, -7, 2**53, 2**53 + 1, -(2**64) - 3, 10**30))
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return rng.choice(('', 'plain', 'say "hi"', 'back\\slash', 'tab\t',
                           'caf\u00e9', '\u6f22\u5b57', '\U0001f600', '\x00'))
    if kind == 3:
        return rng.choice((_Float(0.25), _Float(math.inf), _Int(5),
                           _Str('sub "str"')))
    return _random_float(rng)


def _random_pairs(rng, count):
    """``count`` [re, im] pairs of floats; at times one entry is an int or
    not finite, or a pair is a tuple."""
    nums = [_random_float(rng) if rng.random() < 0.3 else rng.uniform(-2, 2)
            for _ in range(2 * count)]
    if rng.random() < 0.4:
        nums[rng.randrange(len(nums))] = rng.choice(
            (1, 0, -3, 2**60, True, math.nan, math.inf, -math.inf))
    pairs = [[nums[2 * k], nums[2 * k + 1]] for k in range(count)]
    if rng.random() < 0.1:
        pairs[rng.randrange(count)] = tuple(pairs[0])
    return pairs


def _random_value(rng, depth=0):
    kind = rng.randrange(9) if depth < 4 else 0
    if kind == 0:
        return _random_leaf(rng)
    if kind == 1:
        return _random_pairs(rng, 1)[0]
    if kind == 2:
        return _random_pairs(rng, 4)
    if kind == 3:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(6))]
    if kind == 4:
        return tuple(_random_value(rng, depth + 1)
                     for _ in range(rng.randrange(5)))
    if kind == 5:
        return _List(_random_value(rng, depth + 1) for _ in range(2))
    keys = (rng.choice(("a", 'q"k', "\u00e9", 3, -1, 2.5, math.inf, True,
                        None)) for _ in range(rng.randrange(5)))
    out = {k: _random_value(rng, depth + 1) for k in keys}
    return OrderedDict(out) if kind == 6 else out


def test_canonical_text_is_the_reference_byte_for_byte():
    # the writer's exact-type dispatch and one-format pairs and matrices
    # give the text of the element-by-element reference, on values of
    # every kind and subclass, non-finite and int entries in pairs and
    # matrices included
    rng = random.Random(20)
    for _ in range(3000):
        value = _random_value(rng)
        assert dumps_canonical(value) == fmt_reference(value) + "\n", value
    for value in ({1: {2}}, [1j], (b"x",)):
        with pytest.raises(TypeError, match="^cannot serialize "):
            dumps_canonical(value)


@pytest.mark.parametrize("chain", [
    torsion_cycle(7),
    five_term_boundary(0.5, 0.25),
    large_conjugate(7, 3),
], ids=["torsion-7", "five-term", "torsion-7-conjugated"])
def test_streamed_chain_text_is_the_canonical_text(chain):
    out = io.StringIO()
    _write_chain(chain, out, None)
    obj = chain_to_obj(chain)
    assert out.getvalue() == dumps_canonical(obj) == fmt_reference(obj) + "\n"


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


# Explicit ids keep each case's name when a case is inserted before it.
# The cases that were named by position keep those names (matrix0, argv0,
# verify0, ...), so that a record of passing tests still finds them.


@pytest.mark.parametrize("matrix", [
    [[math.nan, 0], [0, 0], [0, 0], [1, 0]],
    [[math.inf, 0], [1, 0], [-1, 0], [0, 0]],
], ids=["matrix0", "matrix1"])
@pytest.mark.parametrize("command", ["check-cycle", "eval"])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, matrix, command):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"group": "SL2C", "degree": 1,
                                "terms": [{"coef": 1, "bar": [matrix]}]}))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "term 0, matrix 0" in err


@pytest.mark.parametrize("command", ["check-cycle", "eval"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_cli_refuses_the_non_finite_literals_json_reads(tmp_path, capsys,
                                                        literal, command):
    # Python's json reads NaN, Infinity and -Infinity as floats; the file
    # promises finite numbers, so such an entry is refused where it appears
    text = dumps_canonical(chain_to_obj(torsion_cycle(5)))
    doc = json.loads(text)
    doc["terms"][1]["bar"][2][3][1] = "SPOT"
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc).replace('"SPOT"', literal))
    assert literal in path.read_text()
    assert main([command, str(path)]) == 2
    assert (capsys.readouterr().err
            == "error: term 1, matrix 2: non-finite entry\n")


@pytest.mark.parametrize("case", ["torsion-coef", "boundary-dropped"])
def test_residual_counts_agree(tmp_path, capsys, case):
    # on a chain that is not a cycle, check-cycle's boundary_terms, the
    # count eval's NotACycle names and the bar boundary's length agree
    if case == "torsion-coef":
        doc = chain_to_obj(torsion_cycle(7))
        doc["terms"][2]["coef"] = 3
    else:
        doc = chain_to_obj(random_boundary_cycle(3, n_terms=2))
        del doc["terms"][4]
    path = tmp_path / "residual.json"
    path.write_text(dumps_canonical(doc))
    count = len(bar_boundary(parse_cycle_file(str(path))))
    assert count > 0
    assert main(["check-cycle", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["is_cycle"], out["boundary_terms"]) == (False, count)
    assert main(["eval", str(path)]) == 2
    assert (capsys.readouterr().err
            == f"error: not a cycle: boundary has {count} terms\n")


def test_cli_eval_exits_2_when_no_cone_apex_clears(tmp_path, capsys,
                                                   monkeypatch):
    # every apex draw is the identity, so torsion 6's repair gives up
    path = tmp_path / "t6.json"
    assert main(["torsion", "--n", "6", "--out", str(path)]) == 0
    monkeypatch.setattr(chains, "random_sl2",
                        lambda rng: GroupElement.identity())
    assert main(["eval", str(path)]) == 2
    assert (capsys.readouterr().err
            == f"error: no generic cone apex in {APEX_ATTEMPTS} attempts\n")


def test_cli_eval_exits_2_when_a_term_has_z_at_1(tmp_path, capsys,
                                                 monkeypatch):
    # 1 - z = (01)(23) / ((02)(13)), so v-goodness bounds |1 - z| below
    # only by VGOOD**2, under config.ZERO: a term whose e^{w0} lies within
    # 1e-13 of 1 is refused by a CcsError, reported with exit 2.  Torsion
    # 5's first term (1, g, g^2, g^3) has three edges, g for (01), (12) and
    # (23), g^2 for (02) and (13), g^3 for (03): the first three Log dets
    # taken are 0, w1/2 and w1 + w0, w0 = -14 * 2**-48 (about -5e-14) and
    # w1 = -Log(1 - e^w0), so that the term's log-parameters are w0, w1 and
    # -w1 - w0 exactly
    path = tmp_path / "t5.json"
    assert main(["torsion", "--n", "5", "--out", str(path)]) == 0
    w0 = complex(-14 * 2.0 ** -48)
    w1 = cmath.log(1 / (1 - cmath.exp(w0)))
    logs, real = [0j, w1 / 2, w1 + w0], pipeline.plog
    monkeypatch.setattr(pipeline, "plog",
                        lambda z: logs.pop(0) if logs else real(z))
    assert main(["eval", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: z = ") and err.endswith(
        " must avoid 0 and 1\n")


def _refused(name, argv, reason):
    """A bad-arguments case whose id is its fixed name, then its reason."""
    return pytest.param(argv, reason, id=f"{name}-{reason}")


@pytest.mark.parametrize("argv, reason", [
    _refused("argv0", ["eval", "{cycle}", "--trials", "0"],
             "argument --trials: must be at least 1"),
    _refused("argv1", ["eval", "{cycle}", "--tolerance", "0"],
             "argument --tolerance: tolerance cmp"),
    _refused("argv2", ["eval", "{cycle}", "--tolerance", "-1"],
             "argument --tolerance: tolerance cmp"),
    _refused("argv3", ["eval", "{cycle}", "--tolerance", "nan"],
             "argument --tolerance: tolerance cmp"),
    _refused("argv4", ["check-cycle", "{cycle}", "--tolerance", "inf"],
             "argument --tolerance: tolerance cmp"),
    _refused("argv5", ["torsion", "--n", "1"],
             "argument --n: must be at least 2"),
    # refused before any of its n terms is built
    _refused("torsion-n-above-bound",
             ["torsion", "--n", str(MAX_TORSION_N + 1)],
             f"argument --n: must be at most {MAX_TORSION_N}, "
             f"got {MAX_TORSION_N + 1}"),
    _refused("argv6", ["real-check", "--samples", "0"],
             "argument --samples: must be at least 1"),
    _refused("argv7", ["eval", "{cycle}", "--seed", "-1"],
             "argument --seed: must be at least 0, got -1"),
    _refused("argv8", ["five-term", "--x", "0.5", "--y", "0.25", "--verify",
                       "--seed", "-1"],
             "argument --seed: must be at least 0, got -1"),
    _refused("argv9", ["real-check", "--seed", "-1"],
             "argument --seed: must be at least 0, got -1"),
    _refused("argv10", ["selftest", "--seed", "-1"],
             "argument --seed: must be at least 0, got -1"),
    # at a cmp as coarse as the apex margin a cone apex can be identified
    # with an element it avoids
    _refused("argv11", ["eval", "{cycle}", "--tolerance", "0.3"],
             "argument --tolerance: tolerance cmp must lie in (0, 0.001), "
             "got 0.3"),
    _refused("argv12", ["check-cycle", "{cycle}", "--tolerance", "1e-3"],
             "argument --tolerance: tolerance cmp must lie in (0, 0.001), "
             "got 0.001"),
    # refused before a loop of 64 vertices a turn is built
    _refused("argv13", ["lift-path", "--p0", str(MAX_TURNS + 1)],
             f"argument --p0: must be at most {MAX_TURNS}, "
             f"got {MAX_TURNS + 1}"),
    _refused("argv14", ["lift-path", "--q1", str(-MAX_TURNS - 1)],
             f"argument --q1: must be at least {-MAX_TURNS}, "
             f"got {-MAX_TURNS - 1}"),
    # parameters that do not parse are refused by their argparse types
    _refused("five-term-y-not-complex",
             ["five-term", "--x", "0.5", "--y", "notcomplex"],
             "argument --y: invalid complex value: 'notcomplex'"),
    _refused("five-term-verify-y-not-complex",
             ["five-term", "--x", "0.5", "--y", "notcomplex", "--verify"],
             "argument --y: invalid complex value: 'notcomplex'"),
    _refused("lift-path-base-not-a-pair", ["lift-path", "--base", "0.3"],
             "argument --base: expects 'x,y' complex pair, got '0.3'"),
])
def test_cli_rejects_bad_arguments(tmp_path, capsys, argv, reason):
    path = tmp_path / "t3.json"
    path.write_text(dumps_canonical(chain_to_obj(torsion_cycle(3))))
    with pytest.raises(SystemExit) as stop:
        main([a.format(cycle=path) for a in argv])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "error: " + reason in err and "Traceback" not in err


def test_cli_lift_path_takes_winding_counts_up_to_the_bound():
    for n in (MAX_TURNS, -MAX_TURNS):
        args = build_parser().parse_args(["lift-path", "--r", str(n)])
        assert (args.p0, args.r) == (0, n)


def test_cli_torsion_above_the_bound_builds_nothing(tmp_path, capsys,
                                                    monkeypatch):
    built = []
    monkeypatch.setattr("extbloch.fixtures.torsion_cycle", built.append)
    out = tmp_path / "t.json"
    with pytest.raises(SystemExit) as stop:
        main(["torsion", "--n", str(MAX_TORSION_N + 1), "--out", str(out)])
    assert stop.value.code == 2 and "must be at most" in capsys.readouterr().err
    assert built == [] and not out.exists()
    args = build_parser().parse_args(["torsion", "--n", str(MAX_TORSION_N)])
    assert args.n == MAX_TORSION_N


@pytest.mark.parametrize("n", [2, 5, 12])
def test_cli_torsion_writes_the_canonical_text(tmp_path, capsys, n):
    # written a term at a time, the file is byte for byte the canonical
    # text of the whole chain's object tree, on stdout and through --out
    want = dumps_canonical(chain_to_obj(torsion_cycle(n)))
    assert main(["torsion", "--n", str(n)]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "t.json"
    assert main(["torsion", "--n", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode() and not capsys.readouterr().out


_IDENTITY = [[1, 0], [0, 0], [0, 0], [1, 0]]
_PAIRS = {"one-number": [1], "three-numbers": [1, 0, 0], "string": "10"}


def _bad_pair(i: int, pair) -> dict:
    """A chain file whose one matrix, the identity, has ``pair`` as its
    pair ``i``."""
    bar = [[*_IDENTITY[:i], pair, *_IDENTITY[i + 1:]]]
    return {"group": "SL2C", "degree": 1, "terms": [{"coef": 1, "bar": bar}]}


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
    ({"group": "SL2C", "degree": 1, "terms": [{"coef": 1, "bar": [_IDENTITY[:3]]}]},
     "term 0, matrix 0: matrix must be four [re, im] pairs"),
    ({"group": "SL2C", "degree": 1, "terms": {"coef": 1}}, "terms must be a list"),
    ({"group": "SL2C", "degree": 1, "terms": [{"bar": [_IDENTITY]}]},
     "term 0: need 'coef' and 'bar'"),
    ({"group": "SL2C", "degree": 1, "terms": [{"coef": 1}]},
     "term 0: need 'coef' and 'bar'"),
    # each pair of a matrix is checked: 1 or 3 numbers, or a string
    *((_bad_pair(i, pair), "term 0, matrix 0: matrix must be four [re, im] "
       "pairs") for i in range(4) for pair in _PAIRS.values()),
], ids=["degree-4", "bool-degree", "bool-coef", "string-entry", "huge-entry",
        "three-pairs", "terms-not-a-list", "no-coef", "no-bar",
        *(f"pair{i}-{kind}" for i in range(4) for kind in _PAIRS)])
def test_cli_eval_rejects_bad_chain_files(tmp_path, capsys, doc, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    try:
        code = main(["eval", str(path)])
    except SystemExit as stop:
        code = stop.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " + reason in err and "Traceback" not in err


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


def test_cli_keys_chain_files_at_the_tolerance(tmp_path, capsys):
    # torsion 5 plus a +1 copy of its first term and a -1 copy whose first
    # matrix is moved by 5e-10: at the default cmp (1e-8) the copies cancel
    # into a 5-term cycle; at cmp 1e-10 the file is read as 6 terms that
    # are not a cycle, so neither command may merge at 1e-8 before the check
    from extbloch.chainio import matrix_to_obj
    from extbloch.core import GroupElement
    doc = chain_to_obj(torsion_cycle(5))
    first = doc["terms"][0]
    g = GroupElement(*(complex(*p) for p in first["bar"][0]))
    moved = g @ GroupElement(1, 5e-10, 0, 1)
    doc["terms"] += [{"coef": 1, "bar": first["bar"]},
                     {"coef": -1, "bar": [matrix_to_obj(moved)]
                      + first["bar"][1:]}]
    path = tmp_path / "copies.json"
    path.write_text(dumps_canonical(doc))
    assert len(parse_cycle_file(str(path))) == 5
    assert len(parse_cycle_file(str(path), 1e-10)) == 6

    assert main(["check-cycle", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["terms"], out["is_cycle"]) == (5, True)
    assert main(["eval", str(path), "--trials", "2"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert abs(value[0] - 0.6) < 1e-12 and abs(value[1]) < 1e-12

    assert main(["check-cycle", str(path), "--tolerance", "1e-10"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["terms"], out["is_cycle"]) == (6, False)
    assert main(["eval", str(path), "--tolerance", "1e-10"]) == 2
    assert capsys.readouterr().err.startswith("error: not a cycle")


def _cli_eval(path, capsys, *extra, trials=4):
    assert main(["eval", str(path), "--seed", "3", "--trials", str(trials),
                 *extra]) == 0
    return capsys.readouterr().out


def _library_eval(path, trials=4, tol=None):
    out = io.StringIO()
    emit_report(ccs_value(parse_cycle_file(str(path), tol), seed=3,
                          trials=trials),
                out=out, extra={"trials_requested": trials})
    return out.getvalue()


def _rounded(c, decimals):
    """The chain file object of ``c`` with every number rounded to
    ``decimals`` decimals."""
    doc = chain_to_obj(c)
    for t in doc["terms"]:
        t["bar"] = [[[round(x, decimals) for x in p] for p in m]
                    for m in t["bar"]]
    return doc


def _rounded_boundary():
    """``random_boundary_cycle(100, n_terms=3)`` as a chain file object with
    every number rounded to 10 decimals: a cycle at cmp 1e-6, and at the
    default 1e-8 too, since its entries moved by far less than cmp."""
    return _rounded(random_boundary_cycle(100, n_terms=3), 10)


def _sheared_torsion():
    """``torsion_cycle(5)`` with each matrix right-multiplied by (1, 1e-7;
    0, 1), as a chain file object: det stays 1, and the faces of its
    boundary agree within 1e-6 but not within 1e-8, so it is a cycle at
    cmp 1e-6 only, of value 3/5 mod 1."""
    shear = GroupElement(1, 1e-7, 0, 1)
    return chain_to_obj(BarChain(3, [(k, tuple(g @ shear for g in sym))
                                     for k, sym in torsion_cycle(5)]))


@pytest.mark.parametrize("doc, tol, want", [
    (lambda: chain_to_obj(torsion_cycle(6)), None, 2 / 3),
    (lambda: chain_to_obj(five_term_boundary(0.5, 0.25)), None, 0.0),
    (lambda: chain_to_obj(small_conjugate(torsion_cycle(12),
                                          random.Random(12))), None, 5 / 6),
    (lambda: chain_to_obj(random_boundary_cycle(5, n_terms=2)), None, 0.0),
    (_rounded_boundary, 1e-6, None),
    (_sheared_torsion, 1e-6, None),
    (lambda: chain_to_obj(spherical.cycle("I")), None, 59 / 60),
    (lambda: chain_to_obj(torsion_cycle(5)), 1e-4, 0.6),
    (_rounded_boundary, None, None),
], ids=["torsion 6", "five-term", "torsion 12 conjugated", "boundary",
        "rounded boundary at cmp 1e-6", "sheared torsion at cmp 1e-6",
        "binary icosahedral", "torsion 5 at cmp 1e-4", "rounded boundary"])
def test_cli_eval_of_ten_trials_is_the_library_report(tmp_path, capsys,
                                                      doc, tol, want):
    # ccs eval evaluates on the symbol table its file was read into, and
    # over 10 trials replays trials 2-10; its report is, byte for byte,
    # the library's, which keys the parsed chain again at the tolerance
    # the parse keyed it at.  Besides torsion 6 (every term bad, down to
    # 1-simplices) and a five-term boundary, the two kinds of file the
    # bench's deep-single workload reads: a torsion cycle conjugated to
    # small entries, and a random boundary; a boundary with rounded
    # entries, a cycle at the default cmp and read at a coarser one too;
    # a torsion cycle that is a cycle only at the coarser cmp its file is
    # read at; the binary icosahedral class (a non-abelian repair); and
    # torsion 5 at a coarser cmp.  Where ``want`` is given, the value is
    # it and the trials agree, within 1e-12
    path = tmp_path / "cycle.json"
    path.write_text(dumps_canonical(doc()))
    extra = [] if tol is None else ["--tolerance", repr(tol)]
    assert main(["check-cycle", str(path), *extra]) == 0
    assert json.loads(capsys.readouterr().out)["is_cycle"] is True
    report = _cli_eval(path, capsys, *extra, trials=10)
    assert report == _library_eval(path, trials=10, tol=tol)
    if want is not None:
        got = json.loads(report)
        assert mod1_dist(got["value"][0], want) <= 1e-12
        assert abs(got["value"][1]) <= 1e-12
        assert got["max_trial_deviation"] <= 1e-12


def test_an_evaluation_runs_at_the_tolerance_its_chain_was_keyed_at(
        tmp_path):
    # read at cmp 1e-6, the rounded boundary gets one triple per term (no
    # term is repaired).  The sheared torsion cycle is not a cycle at the
    # default; read at cmp 1e-6, it is one to every evaluator (ccs_value's
    # report is ccs eval's, as the test above shows), and a conjugate is
    # keyed at the same cmp
    path = tmp_path / "rounded.json"
    path.write_text(dumps_canonical(_rounded_boundary()))
    c = parse_cycle_file(str(path), 1e-6)
    assert len(lambda_hat(c, 0).triples) == len(c)
    path = tmp_path / "sheared.json"
    path.write_text(dumps_canonical(_sheared_torsion()))
    assert not is_cycle(parse_cycle_file(str(path)))[0]
    c = parse_cycle_file(str(path), 1e-6)
    assert is_cycle(c)[0]
    assert len(lambda_hat(c, 0).triples) == 8
    assert repair_with_certificate(c, 0).original_hom.table.tol == 1e-6
    g = random_sl2(random.Random(1))
    assert conjugate_chain(g, c).table.tol == c.table.tol == 1e-6
    value = ccs_value(c, seed=0, trials=2).value_mod1
    assert mod1_dist(value.real, 0.6) <= 1e-8
    assert abs(value.imag) <= 1e-8


@pytest.mark.parametrize("decimals", [10, 11])
def test_rounded_entries_keep_the_value_or_are_refused_by_name(decimals):
    # a cycle whose entries were rounded far below cmp is a cycle at cmp:
    # every other digest corpus cycle, written with its entries rounded,
    # gives its unrounded value within 1e-8 or ends in a named refusal (at
    # 10 decimals, a determinant rounded off by more than DET_TOL), never
    # in NotACycle
    right = 0
    for name, c in list(report_digest.corpus())[::2]:
        want = ccs_value(c, seed=0, trials=2).value_mod1
        try:
            got = ccs_value(chain_from_obj(_rounded(c, decimals)), seed=0,
                            trials=2).value_mod1
        except CcsError as err:
            assert not isinstance(err, NotACycle), (name, err)
            continue
        assert mod1_dist(got.real, want.real) <= 1e-8, name
        assert abs(got.imag - want.imag) <= 1e-8, name
        right += 1
    assert right >= 19 if decimals == 10 else right == 29


def _respelled(nums):
    """The numbers of a repeated matrix spelled otherwise: 1.0 as 1, 0.0 as
    -0.0 and as 0 in turn."""
    out, zeros = [], 0
    for x in nums:
        if x == 0.0:
            x, zeros = (0, -0.0)[zeros % 2], zeros + 1
        elif x == int(x):
            x = int(x)
        out.append(x)
    return out


def _repeats(doc):
    """(term, matrix, numbers) of every occurrence of a matrix that occurs
    earlier in ``doc``."""
    seen = set()
    for k, term in enumerate(doc["terms"]):
        for i, m in enumerate(term["bar"]):
            nums = tuple(x for p in m for x in p)
            if nums in seen:
                yield k, i, nums
            seen.add(nums)


def test_cli_eval_of_repeated_matrices_in_other_spellings(tmp_path, capsys):
    # each distinct matrix is validated and keyed once, by its numbers:
    # a repeat spelled 1 for 1.0, or -0.0 or 0 for 0.0, is the same matrix
    doc = chain_to_obj(five_term_boundary(0.5, 0.25))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(doc))
    repeats = list(_repeats(doc))
    assert len(repeats) == 9
    for k, i, nums in repeats:
        flat = _respelled(nums)
        doc["terms"][k]["bar"][i] = [flat[n:n + 2] for n in range(0, 8, 2)]
    path = tmp_path / "respelled.json"
    path.write_text(json.dumps(doc))
    assert "-0.0" in path.read_text() and "[1, 0]" in path.read_text()
    out = _cli_eval(path, capsys)
    assert out == _library_eval(path) == _cli_eval(plain, capsys)


def test_cli_eval_refuses_true_in_a_repeated_matrix(tmp_path, capsys):
    # true equals 1, so its numbers match an earlier matrix's; the type
    # check still runs on every occurrence and names this one
    doc = chain_to_obj(five_term_boundary(0.5, 0.25))
    k, i, nums = next(r for r in _repeats(doc) if 1.0 in r[2])
    doc["terms"][k]["bar"][i][nums.index(1.0) // 2][nums.index(1.0) % 2] = True
    path = tmp_path / "true.json"
    path.write_text(json.dumps(doc))
    assert (k, i) != (0, 0)
    for command in ("eval", "check-cycle"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: term {k}, matrix {i}: non-numeric entry True\n")


def test_cli_eval_of_a_file_with_a_cancelled_term(tmp_path, capsys):
    # the cancelled pair comes first and holds a matrix no other term uses:
    # the chain is keyed again without it, as ccs_value keys it
    from extbloch.chainio import matrix_to_obj
    doc = chain_to_obj(torsion_cycle(5))
    lone = random_sl2(random.Random(4))
    bar = [matrix_to_obj(lone)] + doc["terms"][4]["bar"][1:]
    doc["terms"][:0] = [{"coef": 2, "bar": bar}, {"coef": -2, "bar": bar}]
    path = tmp_path / "cancelled.json"
    path.write_text(json.dumps(doc))
    chain = parse_cycle_file(str(path))
    assert len(chain) == 5 and lone not in chain.table.elements
    out = _cli_eval(path, capsys)
    assert out == _library_eval(path)
    assert main(["check-cycle", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == 5


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
    # coordinate 2 is within cmp of 1, not equal to it
    ("1000", "1000.000005", "coordinate 2 = (1.000000005+0j) hits 0 or 1"),
])
@pytest.mark.parametrize("verify", [[], ["--verify"]],
                         ids=["verify0", "verify1"])
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
    with pytest.raises(TypeError, match="bug in the constructor"):
        selftest.run_selftest(0)
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
