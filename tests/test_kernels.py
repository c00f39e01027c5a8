"""The trial loop's short-cut kernels against the slower references they
replace: the +- and apex-margin tests against ``sign_distance``,
``FuzzyIndex`` against its frozen int-cell reference and against that
reference probing all cells of every value, the index's identity rule,
the symbol table's products against a det-checked ``GroupElement``, the
slot-indexed v pass against ``near_pairs`` term by term, every trial
plan's edges against ``ldiv`` on every pair, what replays add to the
symbol table, and the largest trial deviation against the maximum over
all pairs."""

import math
import random
import re
import traceback
from itertools import combinations

import pytest

from extbloch import chains, config, core, pipeline
from extbloch.chains import (HomChain, SymbolTable, _Plan, _repair_core,
                             _v_pass, inhom_to_hom, near_pairs,
                             repair_with_certificate)
from extbloch.core import GroupElement, det_pair, random_sl2, random_vector
from extbloch.errors import DeterminantError, OutOfGrid, RepairFailed
from extbloch.fixtures import (five_term_boundary, random_boundary_cycle,
                               torsion_cycle)
from extbloch.pipeline import _max_deviation, _mod1, ccs_value
from extbloch.quantize import _CLEAR, _GUARD, FuzzyIndex

import report_digest
from conftest import (Draws, apex_draws, bits, entries_of, holds,
                      large_conjugate, mod1_dist)
from oracles import (FuzzyIndexReference, check_edge_layout,
                     object_path_report)

TOLS = (1e-8, 1e-3)
DYADIC = [k / 8 for k in range(-16, 17)]


def _unchecked(*entries) -> GroupElement:
    # entries moved by an exact offset rarely keep det 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "DET_TOL", math.inf)
        return GroupElement(*entries)


def _apart_by(rng, g: GroupElement, t: float) -> GroupElement:
    """+-g with each dyadic entry moved by an imaginary offset near ``t``:
    x - (x + i s) is exactly -i s, so |x -+ y| hits ``t`` exactly."""
    offsets = (0.0, t, -t, math.nextafter(t, 0.0), math.nextafter(t, 2 * t),
               2 * t)
    sign = rng.choice((1, -1))
    return _unchecked(*(sign * (x + 1j * rng.choice(offsets))
                        for x in g.entries()))


def _pairs(rng, t):
    """Random elements, +-h and dyadic elements moved by about ``t``."""
    out = []
    for _ in range(40):
        g, h = random_sl2(rng), random_sl2(rng)
        out += [(g, h), (g, h), (g, -g), (g, g)]
        d = _unchecked(*(rng.choice(DYADIC) for _ in range(4)))
        out += [(d, _apart_by(rng, d, t)) for _ in range(8)]
    return out


def test_sign_equiv_agrees_with_sign_distance():
    rng = random.Random(5)
    verdicts = set()
    for tol in TOLS:
        for g, h in _pairs(rng, tol):
            want = g.sign_distance(h) <= tol
            assert g.sign_equiv(h, tol) == want == h.sign_equiv(g, tol)
            verdicts.add((want, g.sign_distance(h) == tol))
    # both verdicts, and the boundary |x - y| == tol itself, were met
    assert verdicts >= {(True, True), (True, False), (False, False)}


def test_clears_agrees_with_sign_distance(monkeypatch):
    # an apex clears a cone when its sign distance from every element the
    # cone holds exceeds the apex margin: torsion 6's first cone holds the
    # identity, so planted first draws exactly the margin from +1 and from
    # -1 are refused, and the next, a billionth of it further, is the apex
    margin, one = config.APEX_MARGIN, GroupElement.identity()
    near, far = (GroupElement(1, m, 0, 1)
                 for m in (margin, margin * (1 + 1e-9)))
    assert near.sign_distance(one) == margin < far.sign_distance(one)
    drawn = apex_draws(monkeypatch)
    rr = repair_with_certificate(torsion_cycle(6), Draws(
        random.Random(6), entries_of(near, -near, far)))
    assert [holds(rr.phi_image.table, g) for g, _ in drawn[:3]] == \
        [False, False, True]


@pytest.mark.parametrize("coincide", ["none", "plus", "minus", "both-moved"])
def test_a_replay_tests_renamed_pairs_for_either_sign(monkeypatch, coincide):
    # trial 1's phi(B) on torsion 6 pairs the identity, an input id, and
    # two ids trial 1 added with an added id.  A replay moves the added ids,
    # and _repairs tests each pair with a moved one on the replay's own
    # elements: set to +-1 or to its pair's other moved element after trial
    # 2's replay, a moved id is refused as _repair_core refuses a bad cone
    # image; with nothing set trial 2 is trial 1's plan on the moved ids
    hom = inhom_to_hom(torsion_cycle(6))
    table, real_replay, shifts = hom.table, chains._replay, []
    base = len(table.elements)
    stream = chains._repairs(hom, random.Random(4), 3)
    plan, slots = next(stream)
    pairs = [(slots[a], slots[b]) for a, b in plan.pairs]
    i, j = next(p for p in pairs if p[0] == table.identity and p[1] >= base)
    if coincide == "both-moved":
        i, j = next(p for p in pairs if min(p) >= base)

    def replay(table, rng, tape, base):
        shifts.append(real_replay(table, rng, tape, base))
        one, moved = GroupElement.identity(), j + shifts[-1]
        if coincide != "none":
            table.elements[moved] = {"plus": one, "minus": -one}.get(
                coincide, table.elements[i + shifts[-1]])
        return shifts[-1]

    monkeypatch.setattr(chains, "_replay", replay)
    if coincide == "none":
        again, ids = next(stream)
        assert again is plan and shifts[0] > 0
        assert ids == [i if i < base else i + shifts[0] for i in slots]
    else:
        with pytest.raises(RepairFailed, match="cone image not good"):
            next(stream)
    assert shifts[0] is not None


class _AllCells(FuzzyIndexReference):
    """The reference with every new value through its probe of all cells,
    which tests every coordinate for the guard band."""

    def key(self, values):
        vals = tuple(values)
        ident = self._seen.get(vals)
        if ident is None:
            ident = self._seen[vals] = self._probe_all(vals)
        return ident


# x / cell at and past 2**51, 2**52 and 2**53, where floats are multiples
# of 1/2, 1 and 2, integer and half-integer: s + _MAGIC - _MAGIC rounds
# them inexactly or, below -2**51, not at all
_FAR = [m + d for m in (2.0 ** 51, 2.0 ** 52, 2.0 ** 53)
        for d in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 4.0)]
# offsets from a cell centre at the edges of the one-cell test and of the
# guard band, and exact half-cells
_EDGES = [e for c in (_CLEAR, 0.5 - _GUARD, 0.5)
          for e in (c, math.nextafter(c, 0.0), math.nextafter(c, 1.0))]


def _exactly(s, cell):
    """An x with x / cell == s when one lies within a few ulps of
    s * cell."""
    x = s * cell
    for _ in range(4):
        if x / cell == s:
            break
        x = math.nextafter(x, math.inf if x / cell < s else -math.inf)
    return x


def _near_zero(rng, cell):
    """+-0.0 or a tiny value, or an edge offset from the centre of cell 0
    (exact there) or of cell +-1."""
    if rng.random() < 0.3:
        return rng.choice((0.0, -0.0, 5e-324, -1e-300))
    return _exactly(rng.choice((0, 0, 1, -1))
                    + rng.choice((1, -1)) * rng.choice(_EDGES), cell)


def _stream(rng, tol, dim):
    """Vectors near half-cells, inside and outside the guard band and its
    one-cell margin, and values within ``tol`` and beyond ``2 * tol`` of
    earlier ones; coordinates at ``x / cell`` past 2**51, at the edge
    offsets of a cell and exact half-cells, and +-0.0 and tiny values in
    the cell of 0.  Cells are ``tol / _GUARD`` wide."""
    cell, out = tol / _GUARD, []
    for _ in range(300):
        kind = rng.randrange(8)
        if kind == 3:
            vec = tuple(_exactly(rng.choice((1, -1)) * rng.choice(_FAR), cell)
                        if rng.random() < 0.5 else rng.uniform(-1, 1)
                        for _ in range(dim))
        elif kind == 4:
            vec = tuple(_near_zero(rng, cell) for _ in range(dim))
        elif kind == 0 or not out:
            band = rng.choice((0.5, 1.5, 1.9, 2.0, 2.1, 3.0, 50.0)) * _GUARD
            vec = tuple((rng.randrange(-50, 50) + 0.5
                         + rng.choice((1, -1)) * band) * cell
                        for _ in range(dim))
        elif kind == 1:
            vec = tuple(rng.uniform(-1, 1) for _ in range(dim))
        else:
            step = rng.choice((0.3, 0.9, 1.0, 2.1, 5.0)) * tol
            vec = tuple(x + rng.choice((1, -1, 0)) * step
                        for x in rng.choice(out))
        out.append(vec)
        if rng.random() < 0.1:
            out.append(vec)  # an exact repeat
    return out


def _cell_of(vec, cell):
    return tuple(round(x / cell) for x in vec)


def _assert_not_vacuous(index, stream):
    """Some of ``stream``'s distinct values have a coordinate in the guard
    band and some have none, and some were given the id of a vector stored
    under another cell, so ids were shared across a cell boundary."""
    cell, distinct = index.tol / _GUARD, set(stream)
    split = sum(any(0.5 - abs(x / cell - r) < _GUARD
                    for x, r in zip(v, _cell_of(v, cell))) for v in distinct)
    home = {i: c for c, ids in index._cells.items() for i in ids}
    across = sum(home[index.key(v)] != _cell_of(v, cell) for v in distinct)
    assert 0 < split < len(distinct)
    assert 0 < across and len(index) < len(distinct)


@pytest.mark.parametrize("dim", [0, 1, 2, 8])
@pytest.mark.parametrize("tol", [1e-8, 1e-3, 1.0])
def test_one_cell_lookup_gives_the_full_probe_ids(tol, dim):
    # the index tests a coordinate within _CLEAR of its cell centre for
    # nothing more, and looks a value with no split coordinate up in its
    # one cell: the reference that tests every coordinate of every new
    # value for the guard band and probes all its cells gives the same ids
    for seed in range(3):
        stream = _stream(random.Random(seed), tol, dim)
        index, ref = FuzzyIndex(tol), _AllCells(tol)
        assert [index.key(v) for v in stream] == [ref.key(v) for v in stream]
        assert index._reps == ref._reps and index._cells == ref._cells
        if dim:
            _assert_not_vacuous(index, stream)


@pytest.mark.parametrize("dim", [0, 1, 2, 8])
@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-3, 1.0])
def test_index_gives_the_frozen_reference_ids(tol, dim):
    # float cells from s + _MAGIC - _MAGIC against int cells from round,
    # on cells tol / _GUARD wide
    cell, far = tol / _GUARD, 0
    for seed in range(3):
        stream = _stream(random.Random(seed), tol, dim)
        index, ref = FuzzyIndex(tol), FuzzyIndexReference(tol)
        assert [index.key(v) for v in stream] == [ref.key(v) for v in stream]
        assert index._reps == ref._reps and index._cells == ref._cells
        if dim:
            _assert_not_vacuous(index, stream)
        far += sum(abs(x / cell) >= 2.0 ** 51 for v in stream for x in v)
    assert far > 10 if dim else far == 0


def _near_boundaries(rng, cell, dim):
    """A vector each of whose entries lies within 2 * _GUARD cells of a
    boundary of cells ``cell`` wide, or, three times in ten, anywhere."""
    return tuple((rng.randrange(-1000, 1000) + 0.5
                  + rng.uniform(-2, 2) * _GUARD) * cell
                 if rng.random() < 0.7 else rng.uniform(-1000, 1000) * cell
                 for _ in range(dim))


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-3, 1.0])
def test_a_value_within_tol_of_a_stored_one_gets_a_stored_id(tol, dim):
    # the rule the index keeps, whatever its grid: a value within tol in
    # every entry of a stored vector gets a stored id, and values more
    # than 2 tol apart never share one.  The stored entries sit near the
    # boundaries of the index's cells, tol / _GUARD wide, so that a value
    # 0.1 to 1.0 tol away often lies in the neighbouring cell
    rng, cell = random.Random(dim), tol / _GUARD
    index = FuzzyIndex(tol)
    for _ in range(300):
        index.key(_near_boundaries(rng, cell, dim))
    stored, crossed = list(index._reps), 0
    size = len(stored)
    for v in stored:
        near = tuple(x + rng.choice((1, -1)) * rng.uniform(0.1, 1.0) * tol
                     for x in v)
        assert max(abs(a - b) for a, b in zip(near, v)) <= tol
        assert index.key(near) < size
        crossed += _cell_of(near, cell) != _cell_of(v, cell)
    assert crossed > 20
    for v in stored:
        apart = list(v)
        apart[rng.randrange(dim)] += rng.choice((1, -1)) * 2.01 * tol
        assert index.key(apart) != index.key(v)
    for vals, ident in index._seen.items():
        assert max(abs(a - b) for a, b in zip(vals, index._reps[ident])) <= tol


def _farthest_within(y, tol, step):
    """The x furthest from ``y`` towards ``step`` (+-inf) with
    ``abs(x - y) <= tol``, the distance ``_first_within`` measures."""
    x = y + math.copysign(tol, step)
    while abs(x - y) > tol:
        x = math.nextafter(x, -step)
    while abs(math.nextafter(x, step) - y) <= tol:
        x = math.nextafter(x, step)
    return x


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 3e-7, 0.1, 1.0])
def test_a_value_exactly_tol_from_a_tie_gets_its_id(tol):
    # the margin of the rule: a value stored at a half-cell tie, and a new
    # value as far as tol from it on either side, one of them across the
    # boundary, whatever the rounding of x / cell
    cell, crossed = tol / _GUARD, 0
    for k in (0, 1, 2, 7, 2 ** 10 + 1, 2 ** 20, 2 ** 30, 2 ** 40):
        for s in (k - 0.5, k + 0.5, -k - 0.5):
            if _exactly(s, cell) / cell != s:
                continue
            for tie in (_outermost(s, cell, -math.inf),
                        _outermost(s, cell, math.inf)):
                for step in (-math.inf, math.inf):
                    x = _farthest_within(tie, tol, step)
                    for index in (FuzzyIndex(tol), FuzzyIndexReference(tol)):
                        assert index.key((tie,)) == 0
                        assert index.key((x,)) == 0, (k, tie, x)
                    crossed += _cell_of((x,), cell) != _cell_of((tie,), cell)
    assert crossed > 20


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("tol", [1e-8, 1.0])
def test_guard_band_splits_every_coordinate(tol, n):
    # two values 2e-9 of a cell apart, on either side of the boundary in n
    # of 8 coordinates: the second must find the first in the neighbour
    # cell, n coordinates away
    cell = tol / _GUARD
    for index in (FuzzyIndex(tol), FuzzyIndexReference(tol)):
        for side in (-1, 1):
            vals = [(0.5 + side * 1e-9) * cell] * n + [0.0] * (8 - n)
            assert index.key(vals) == 0
        assert len(index) == 1


def _outermost(s, cell, step):
    """The x furthest towards ``step`` (+-inf) with x / cell == s."""
    x = _exactly(s, cell)
    assert x / cell == s
    while math.nextafter(x, step) / cell == s:
        x = math.nextafter(x, step)
    return x


@pytest.mark.parametrize("tol, k", [(1e-8, 2 ** 30), (0.1, 2 ** 20)])
def test_a_cell_answers_its_first_stored_vector(tol, k):
    # x / cell rounds, ties to even: the values at the two half-cell ties
    # of cell k, k even, are both stored in it.  A value 1.5 tol inwards
    # of each tie is stored there too, and the value between the two,
    # within tol of both, gets the first
    cell = tol / _GUARD
    low = _outermost(k - 0.5, cell, -math.inf)
    high = _outermost(k + 0.5, cell, math.inf)
    for index in (FuzzyIndex(tol), FuzzyIndexReference(tol)):
        for tie, inwards in ((low, tol), (high, -tol)):
            first = index.key((tie,))
            second = index.key((tie + 1.5 * inwards,))
            assert index.key((tie + 0.75 * inwards,)) == first != second
        assert index._cells[(k,)] == [0, 1, 2, 3]


@pytest.mark.parametrize("vals, first", [
    ((0.5, -math.inf, math.inf), -math.inf),
    ((2.0, 1e305, -1e306), 1e305),  # x / tol overflows for finite x
    ((math.inf,), math.inf),
    ((2.0, 1e301), 1e301),  # x / tol overflows, x / cell does not
])
def test_out_of_grid_names_the_first_offending_value(vals, first):
    for index in (FuzzyIndex(1e-8), FuzzyIndexReference(1e-8)):
        with pytest.raises(OutOfGrid,
                           match=f"^value {re.escape(repr(first))} is out"):
            index.key(vals)
        assert len(index) == 0 and index.key((0.5,)) == 0


@pytest.mark.parametrize("vals", [(math.nan,), (1.0, math.nan, math.inf),
                                  (0.0,) * 7 + (math.nan,)])
def test_nan_raises_value_error(vals):
    for index in (FuzzyIndex(1e-8), FuzzyIndexReference(1e-8)):
        with pytest.raises(ValueError) as err:
            index.key(vals)
        assert not isinstance(err.value, OutOfGrid)
        assert len(index) == 0


def test_formed_products_are_det_checked(monkeypatch):
    rng = random.Random(8)
    g, h, k = (random_sl2(rng) for _ in range(3))
    table = SymbolTable()
    i, j, m = map(table.intern, (g, h, k))
    gh = table.intern(g @ h)  # the product is known before it is formed
    with monkeypatch.context() as mp:
        mp.setattr(core, "DET_TOL", -1.0)  # every det check fails
        for form in (table.mul, table.ldiv):
            with pytest.raises(DeterminantError,
                               match=r"^determinant .* differs from 1$"):
                form(i, j)
    # a re-identified product appends nothing; a new one appends one
    size = len(table.elements)
    assert table.mul(i, j) == gh and len(table.elements) == size
    left = table.mul(table.mul(i, j), m)
    assert len(table.elements) == size + 1
    assert table.mul(i, table.mul(j, m)) == left
    assert len(table.elements) == size + 2  # h k is new, (g h) k is not
    assert table.elements[left] == (g @ h) @ k
    assert table.ldiv(i, gh) == j and len(table.elements) == size + 2


def _forms_counted(monkeypatch):
    """A list that grows by one for every product or quotient formed (each
    is det-checked, once)."""
    formed, real = [], chains.check_det

    def counted(*entries):
        formed.append(entries)
        return real(*entries)

    monkeypatch.setattr(chains, "check_det", counted)
    return formed


def _conjugates(rng, count):
    """Random elements, and conjugates of them whose entries reach 30."""
    out = []
    while len(out) < count:
        g = random_sl2(rng)
        s = rng.choice((1.0, 2.0, 4.0, 5.5))
        k = GroupElement(s, rng.uniform(-1, 1), 0, 1 / s)
        h = k @ g @ k.inverse()
        if h.max_abs() <= 30:
            out.append(h)
    return out


def test_a_formed_product_knows_its_quotient(monkeypatch):
    rng = random.Random(10)
    table = SymbolTable()
    ids = [table.intern(g) for g in _conjugates(rng, 40)]
    formed = _forms_counted(monkeypatch)
    one = table.identity  # g 1 and 1 g are g: nothing formed
    assert table.mul(ids[0], one) == table.mul(one, ids[0]) == ids[0]
    for i, j in zip(ids, ids[1:]):
        k = table.mul(i, j)
        assert len(formed) == 1
        assert table.ldiv(i, k) == j and len(formed) == 1
        q = table.ldiv(j, i)
        assert len(formed) == 2
        assert table.mul(j, q) == i and len(formed) == 2
        formed.clear()


def test_a_known_quotient_is_the_one_formed():
    # the memo answers g_i^-1 (g_i g_j) and g_i (g_i^-1 g_j) with g_j; a
    # table that has only interned the same elements forms the answer and
    # must land on the same id
    rng = random.Random(11)
    elements = _conjugates(rng, 200)
    assert max(g.max_abs() for g in elements) > 20
    for g, h in zip(elements, elements[1:]):
        for form, inverse in (("mul", "ldiv"), ("ldiv", "mul")):
            table = SymbolTable()
            i, j = table.intern(g), table.intern(h)
            k = getattr(table, form)(i, j)
            assert getattr(table, inverse)(i, k) == j
            reference = SymbolTable()
            assert [reference.intern(x) for x in table.elements] == list(
                range(len(table.elements)))
            assert getattr(reference, inverse)(i, k) == j


def test_a_quotient_of_translates_is_the_one_formed(monkeypatch):
    # (g_f g_x)^-1 (g_f g_y) and (g_f^-1 g_x)^-1 (g_f^-1 g_y) are g_x^-1 g_y:
    # once that is known the memo answers with its id, forming nothing, and
    # a table that has only interned the same elements forms the quotient
    # and lands on the same id; before it is known the quotient is formed
    rng = random.Random(12)
    elements = _conjugates(rng, 150)
    assert max(g.max_abs() for g in elements) > 20
    formed = _forms_counted(monkeypatch)
    for f, x, y in zip(elements[::3], elements[1::3], elements[2::3]):
        for form in ("mul", "ldiv"):
            for base_known in (True, False):
                table = SymbolTable()
                ids = [table.intern(g) for g in (f, x, y)]
                q = table.ldiv(ids[1], ids[2]) if base_known else None
                translate = getattr(table, form)
                i, j = translate(ids[0], ids[1]), translate(ids[0], ids[2])
                formed.clear()
                k = table.ldiv(i, j)
                assert len(formed) == (0 if base_known else 1)
                if not base_known:
                    continue
                assert k == q
                reference = SymbolTable()
                assert [reference.intern(g) for g in table.elements] == list(
                    range(len(table.elements)))
                assert reference.ldiv(i, j) == k and len(formed) == 1


def test_large_conjugates_keep_their_value_or_det_error():
    # the det error comes from the det check of a quotient formed by the
    # table's one kernel: for s = 60 in a later trial's replay, which calls
    # the kernel itself, for s = 100 in the first trial's repair, through
    # ldiv
    value = ccs_value(large_conjugate(5, 30), seed=0, trials=3).value_mod1
    assert abs(value - 0.6) < 1e-12
    for s, above in ((60, ["_replay"]), (100, ["ldiv", "_formed"])):
        with pytest.raises(DeterminantError,
                           match=r"^determinant \(.*\) differs from 1$") as e:
            ccs_value(large_conjugate(5, s), seed=0, trials=3)
        frames = [f.name for f in traceback.extract_tb(e.value.__traceback__)]
        assert frames[-2 - len(above):] == [*above, "_form", "check_det"]
        assert ("ldiv" in frames) == (s == 100)


def test_report_digest_repeats():
    cycles = list(report_digest.corpus())
    first = report_digest.digest(cycles, seeds=(0,), trials=(2,))
    assert first == report_digest.digest(cycles, seeds=(0,), trials=(2,))
    assert first[1] == len(cycles) == 58
    assert report_digest.digest(cycles[:3], seeds=(7,), trials=(2,)) != \
        report_digest.digest(cycles[:3], seeds=(0,), trials=(2,))


def _by_near_pairs(elements, terms, v):
    """The reference v pass: per term, its vectors, ``near_pairs`` on them
    and its dets in ``combinations`` order."""
    offending, dets = [], []
    for t_idx, (_, ids) in enumerate(terms):
        vecs = [elements[i].apply(v) for i in ids]
        offending += [(t_idx, i, j) for i, j in near_pairs(vecs)]
        dets.append([det_pair(vecs[i], vecs[j])
                     for i, j in combinations(range(len(ids)), 2)])
    return offending, dets


def test_slot_pass_agrees_with_near_pairs_term_by_term(monkeypatch):
    # a plan's pass with its slots holding the plan's own ids, or ids of
    # the same table renamed at random (as a replay renames them), gives
    # near_pairs' decision and, for a v it accepts, its dets term by term:
    # one apply per element and one det per id pair.  The plans are those
    # of repaired cycles, and of chains with +- coincidences
    draws = random.Random(9)
    phis = []
    for cycle in (torsion_cycle(6), random_boundary_cycle(2, n_terms=3),
                  five_term_boundary(0.5, 0.25)):
        hom = inhom_to_hom(cycle)
        phi = _repair_core(hom, draws)[1]
        phis.append((hom.table.elements, phi, _Plan(hom.table, phi)))
    one = GroupElement.identity()
    for hom in (inhom_to_hom(torsion_cycle(4)),
                HomChain(1, [(1, (one, -one))], True)):
        phi = list(hom.pairs())
        phis.append((hom.table.elements, phi, _Plan(hom.table, phi)))
    verdicts = set()
    for vgood in (config.VGOOD, 0.3):
        monkeypatch.setattr(config, "VGOOD", vgood)
        for elements, phi, plan in phis:
            slots = plan.slots
            pair_at = {(slots[a], slots[b]): k
                       for k, (a, b) in enumerate(plan.pairs)}
            for renamed in (False, True):
                ren = {i: i for i in slots}
                if renamed:
                    pool = draws.sample(range(len(elements)), len(slots))
                    ren = dict(zip(slots, pool))
                terms = [(c, tuple(ren[i] for i in ids)) for c, ids in phi]
                for _ in range(4):
                    v = random_vector(draws)
                    dets = _v_pass(elements, plan, [ren[i] for i in slots], v)
                    want, want_dets = _by_near_pairs(elements, terms, v)
                    assert (dets is None) == bool(want)
                    if dets is not None:
                        assert [bits(*(dets[pair_at[p]]
                                       for p in combinations(ids, 2)))
                                for _, ids in phi] == \
                            [bits(*row) for row in want_dets]
                    verdicts.add(not want)
    assert verdicts == {True, False}


_EDGE_CYCLES = [torsion_cycle(6), torsion_cycle(12),
                random_boundary_cycle(3, n_terms=3),
                five_term_boundary(0.5, 0.25)]


def _trials(hom, seed: int, trials: int = 10):
    """The trials of ``_trial_loop`` on the checked cycle ``hom``, drawn as
    it draws them (each trial's repair, then its v and edge Logs): per
    trial, the table as the trial left it, the plan and the slot ids."""
    rng = Draws(random.Random(seed))
    for plan, ids in chains._repairs(hom, rng, trials):
        pipeline._lambda_hat(hom.table.elements, plan, ids, rng)
        yield hom.table, plan, ids


def test_kept_edges_are_those_ldiv_gives():
    # each trial's plan groups its pairs by edge as the ids ldiv gives
    # them do (see ``oracles.check_edge_layout``): in a trial repaired in
    # full ldiv answers from the memo, forming nothing; a replayed trial
    # memoizes nothing, so ldiv forms each quotient with a renamed id, and
    # it must land on an id the table holds, adding no element
    kept = []
    for cycle in _EDGE_CYCLES:
        for seed in (0, 1):
            hom, first = inhom_to_hom(cycle), None
            for table, plan, ids in _trials(hom, seed):
                table.tape = []  # records every product or quotient formed
                check_edge_layout(table, plan, ids)
                renamed = [(a, b) for a, b in plan.pairs if (ids[a], ids[b])
                           != (plan.slots[a], plan.slots[b])]
                if first is None:
                    first = plan
                elif plan is first:  # a replay: trial 1's plan, slots renamed
                    kept.append((len(plan.pairs) - len(renamed), len(renamed)))
                # a quotient is formed for each renamed pair (only a replay
                # has one) whose first element is not the identity
                assert len(table.tape) == sum(ids[a] != table.identity
                                              for a, _ in renamed)
                table.tape = None
    # not vacuous: every later trial replayed, and (on torsion 12) a
    # replay has pairs both with and without renamed slots
    assert len(kept) == 9 * 2 * len(_EDGE_CYCLES)
    assert any(k and renamed for k, renamed in kept)


def test_every_formed_element_comes_through_one_kernel(monkeypatch):
    # torsion 6, 10 trials, every later trial a replay: each element the
    # trials append is an apex (drawn by ``random_sl2``) or a product or
    # quotient whose entries were det-checked (``check_det``), in a trial
    # repaired in full and in a replay alike
    checked, apexes = _forms_counted(monkeypatch), apex_draws(monkeypatch)
    hom = inhom_to_hom(torsion_cycle(6))
    ends, plans = [len(hom.table.elements)], []
    for table, plan, _ in _trials(hom, 0):
        ends.append(len(table.elements))
        plans.append(plan)
    drawn = {g.entries() for g, _ in apexes}
    for lo, hi in zip(ends, ends[1:]):
        kinds = {(g.entries() in checked, g.entries() in drawn)
                 for g in hom.table.elements[lo:hi]}
        # one kind each, and both met in trial 1 and in every replay
        assert kinds == {(False, True), (True, False)}
    assert all(plan is plans[0] for plan in plans)  # trials 2-10 replayed


def test_replays_leave_the_memos_as_trial_1_left_them(monkeypatch):
    # torsion 6, seed 0: every term is bad, and each later trial replays.
    # A replay interns exactly the ids its tape adds, as many as trial 1
    # added, and memoizes nothing: after ten trials the table answers
    # trial 1's Log-det edges from its memos, forming nothing, and forms
    # those of the last replay anew
    hom = inhom_to_hom(torsion_cycle(6))
    table, base = hom.table, len(hom.table.elements)
    runs = [(len(t.elements), plan, ids) for t, plan, ids in _trials(hom, 0)]
    added = runs[0][0] - base
    assert added > 0
    assert [n for n, _, _ in runs] == [base + k * added for k in range(1, 11)]
    formed, plan = _forms_counted(monkeypatch), runs[0][1]
    for (_, _, ids), forms in ((runs[0], False), (runs[-1], True)):
        formed.clear()
        for a, b in plan.pairs:
            table.ldiv(ids[a], ids[b])
        assert bool(formed) == forms


def test_replays_report_as_full_repairs():
    # torsion 6 and 12 and a three-term boundary at seeds 0 and 7: a 10-trial
    # report, whose later trials replay, is that of successive full repairs
    for cycle in (torsion_cycle(6), torsion_cycle(12),
                  random_boundary_cycle(3, n_terms=3)):
        for seed in (0, 7):
            assert ccs_value(cycle, seed=seed, trials=10) == \
                object_path_report(cycle, seed, 10)


def _pairwise_deviation(values):
    """The reference: the maximum over every pair of trial values."""
    return max((max(mod1_dist(a.real, b.real), abs(a.imag - b.imag))
                for a, b in combinations(values, 2)), default=0.0)


def _trial_values(rng, n):
    """``n`` trial values: real parts spread out or clustered near 0, 1,
    0.5 apart (where the circle distance turns), with ties and 0.0."""
    kind = rng.randrange(4)
    base = rng.choice((0.0, 0.25, 0.6, 1 - 1e-15))
    out = []
    for _ in range(n):
        if kind == 0:
            x = rng.random()
        elif kind == 1:
            x = base + rng.choice((0.0, 0.5)) + rng.uniform(-1e-12, 1e-12)
        elif kind == 2:
            x = rng.choice((0.0, 1e-16, -1e-16, 0.5, 0.5 + 2e-16, base))
        else:
            x = math.nextafter(base + 0.5, rng.choice((0.0, 2.0))) \
                if rng.random() < 0.5 else base
        y = rng.choice((0.0, -0.0, rng.uniform(-1e-12, 1e-12),
                        rng.uniform(-1, 1)))
        out.append(complex(_mod1(x), y))
    if out and rng.random() < 0.3:
        out += out[:rng.randrange(len(out)) + 1]  # repeated trials
    return out


def test_max_deviation_is_the_pairwise_maximum():
    rng = random.Random(12)
    for count in (*range(1, 12), *(rng.randrange(12, 201) for _ in range(300))):
        values = _trial_values(rng, count)
        assert repr(_max_deviation(values)) == repr(_pairwise_deviation(values))
