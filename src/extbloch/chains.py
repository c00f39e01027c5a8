"""Formal chain algebra over SL(2,C).

Chains are integer combinations of tuples of group elements, in two
presentations: bar symbols [g1|...|gn] and homogeneous (n+1)-tuples
(g0,...,gn) carrying the left translation action.  The conversions

    [g1|...|gn]  ->  (1, g1, g1 g2, ..., g1...gn)
    (g0,...,gn)  ->  [g0^-1 g1 | ... | g_{n-1}^-1 gn]

are mutually inverse chain isomorphisms once homogeneous tuples are taken
up to simultaneous left translation ("coinvariant" form, first entry 1).

Every chain keys its terms by tuples of integer ids from a ``SymbolTable``,
so boundaries, conversions and sums merge terms by exact keys; a group
element is identified numerically only once, when the table first meets it.
Public constructors give a chain a table of its own.  An evaluation
(``is_cycle``, ``repair_with_certificate``, ``lambda_hat``, ``ccs_value``)
re-interns its input into a new table at the tolerance of the input's
own, and leaves the input's table alone, so a chain is evaluated at the
tolerance it was keyed at; ``ccs eval`` and ``check-cycle`` use the table
the file was read into.

``repair_with_certificate`` replaces a cycle by a homologous one avoiding
all g_i = +-g_j coincidences, together with an explicit homotopy
certificate; it changes only the simplices that have such a coincidence.
Within one evaluation, ``_repairs`` repairs the first trial in full and
replays that repair, with its Log-det edges, for each later trial: every
trial comes as a ``_Plan`` of the repaired cycle (its distinct ids, id
pairs and edges, and rows that index those edges directly) and the ids
its slots hold.  A replay is one flat pass (``_replay``) over the first
trial's tape, compiled once (``_compiled``), that forms through the
table's one kernel (``SymbolTable._form``), leaves the table's memos as
the first trial left them, and shares the first trial's plan, with the
ids the first trial added moved by one offset.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import combinations

from . import config
from .core import (GroupElement, ProjVector, Record, as_rng,
                   check_det, det_pair, random_sl2, random_vector)
from .errors import NotACycle, RepairFailed, SamplingExhausted
from .formal import FormalSum
from .quantize import FuzzyIndex

GTuple = tuple[GroupElement, ...]
Ids = tuple[int, ...]
_Terms = list[tuple[int, Ids]]

MAX_DEGREE = 4  # the pipeline needs cycles (3) and homotopies (4) only
V_ATTEMPTS = 1000  # draws of v before ``sample_generic_v`` gives up
APEX_ATTEMPTS = 1000  # draws of a cone apex before a repair gives up

_SIGNS = (1, -1) * 3  # (-1)^i for the faces of a tuple of up to 6 entries

# kinds of the events on a repair's tape (see ``_repairs``)
_MUL, _LDIV, _REUSE, _DRAW = range(4)


class SymbolTable:
    """Integer ids for the group elements of one computation.

    ``elements[i]`` is the first element seen with id ``i``.  Elements are
    keyed through a ``FuzzyIndex`` over their eight entry floats at the
    comparison tolerance ``tol``, ``config.CMP`` when not given and checked
    by ``config.check_cmp`` (see :mod:`extbloch.quantize` for what it
    identifies).
    Products g_i g_j, left quotients g_i^-1 g_j and sign coincidences of
    representatives (``good``) are memoized by id; an inverse is never
    interned on its own.  Forming g_i g_j = g_k memoizes g_i^-1 g_k = g_j
    and forming g_i^-1 g_j = g_k memoizes g_i g_k = g_j, unless memoized
    already.  Each id keeps the left factor and base of the first product
    or quotient that landed on it (g_k = g_f g_x or g_f^-1 g_x), so the
    quotient of two translates by one factor, (g_f g_x)^-1 (g_f g_y) or
    (g_f^-1 g_x)^-1 (g_f^-1 g_y), is g_x^-1 g_y's id when that is known.
    These answers are exact in SL(2, C) and never formed, so never
    det-checked.  Every product or quotient is formed by ``_form``, a
    replay's too.  While ``tape`` is a list, every product or quotient
    formed on a memo miss goes on it.  Only ``mul``, ``ldiv`` and ``good``
    fill the memos: a replayed trial (``_replay``) interns its own ids but
    memoizes nothing, so the memos hold the input's ids and those of
    trials repaired in full (the first, and fallbacks).
    """

    def __init__(self, tol: float | None = None):
        self.tol = config.check_cmp(config.CMP if tol is None else tol)
        self.elements: list[GroupElement] = []
        self._index = FuzzyIndex(self.tol)
        self._products: dict[tuple[int, int], int] = {}
        self._quotients: dict[tuple[int, int], int] = {}
        # id -> ((op, left factor), base) of the first formation landing on it
        self._translates: dict[int, tuple[tuple[int, int], int]] = {}
        self._coincide: dict[tuple[int, int], bool] = {}
        self.tape: list | None = None
        self.identity = self.intern(GroupElement.identity())

    def intern(self, g: GroupElement) -> int:
        ident = self._index.key((g.a.real, g.a.imag, g.b.real, g.b.imag,
                                 g.c.real, g.c.imag, g.d.real, g.d.imag))
        if ident == len(self.elements):
            self.elements.append(g)
        return ident

    def mul(self, i: int, j: int) -> int:
        if i == self.identity:  # 1 g = g exactly: no product, no intern
            return j
        ident = self._products.get((i, j))
        if ident is None:
            ident = self._products[(i, j)] = self._formed(_MUL, i, j)
            self._quotients.setdefault((i, ident), j)
        return ident

    def ldiv(self, i: int, j: int) -> int:
        """The id of g_i^-1 g_j: g_j for i the identity, memoized, or the
        quotient of two translates by one factor (see ``_translated``), or
        else formed (see ``_form``)."""
        if i == self.identity:  # 1^-1 g = g exactly: no product, no intern
            return j
        ident = self._quotients.get((i, j))
        if ident is None:
            ident = self._translated(i, j)
            if ident is None:
                ident = self._formed(_LDIV, i, j)
                self._products.setdefault((i, ident), j)
            self._quotients[(i, j)] = ident
        return ident

    def _translated(self, i: int, j: int) -> int | None:
        """g_x^-1 g_y's id when g_i, g_j are g_f g_x, g_f g_y (or g_f^-1 g_x,
        g_f^-1 g_y) and that quotient is known, else None."""
        t, u = self._translates.get(i), self._translates.get(j)
        if t is None or u is None or t[0] != u[0]:
            return None
        x, y = t[1], u[1]
        return y if x == self.identity else self._quotients.get((x, y))

    def _formed(self, op: int, i: int, j: int) -> int:
        """``_form`` on the elements of ids i and j, remembered as a
        translate and put on the tape, as (op, i, j, result id), when one
        is on."""
        ident = self._form(op, self.elements[i], self.elements[j])
        self._translates.setdefault(ident, ((op, i), j))
        if self.tape is not None:
            self.tape.append((op, i, j, ident))
        return ident

    def _form(self, op: int, g: GroupElement, h: GroupElement) -> int:
        """The id of g h (``_MUL``) or g^-1 h (``_LDIV``, g^-1 as g's
        adjugate), formed with the float operations of ``g @ h`` or
        ``g.inverse() @ h``, det checked and keyed as ``intern`` keys; an
        element is built for a new id only (``GroupElement._unchecked``:
        its det is not checked again)."""
        if op == _MUL:
            p, q, s, t = g.a, g.b, g.c, g.d
        else:
            p, q, s, t = g.d, -g.b, -g.c, g.a
        a, b = p * h.a + q * h.c, p * h.b + q * h.d
        c, d = s * h.a + t * h.c, s * h.b + t * h.d
        check_det(a, b, c, d)
        ident = self._index.key((a.real, a.imag, b.real, b.imag,
                                 c.real, c.imag, d.real, d.imag))
        if ident == len(self.elements):
            self.elements.append(GroupElement._unchecked(a, b, c, d))
        return ident

    def good(self, ids: Ids) -> bool:
        """No two entries of ``ids`` coincide up to sign: g_i = +-g_j at
        ``tol`` is decided once per unordered id pair, pair by pair in
        ``combinations`` order, up to the first coincidence."""
        memo, elements, tol = self._coincide, self.elements, self.tol
        for i, j in combinations(ids, 2):
            key = (i, j) if i <= j else (j, i)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = elements[i].sign_equiv(elements[j], tol)
            if hit:
                return False
        return True

    def canonical(self, ids: Ids) -> Ids:
        """Left-translate so the first entry is the identity."""
        first = ids[0]
        if first == self.identity:
            return ids
        ldiv = self.ldiv
        return (self.identity, *[ldiv(first, i) for i in ids[1:]])


class _Chain(FormalSum):
    """A chain of one degree with terms keyed by tuples of ids from a
    ``SymbolTable``; only homogeneous chains can be coinvariant."""

    __slots__ = ("degree", "coinvariant")
    _extra = 0  # tuple length minus degree

    def __init__(self, degree: int, terms, coinvariant: bool):
        if not 0 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree {degree} outside supported range")
        self.degree, self.coinvariant = degree, coinvariant
        super().__init__(terms, SymbolTable())

    @classmethod
    def _on(cls, table: SymbolTable, degree: int,
            pairs: Iterable[tuple[int, Ids]], coinvariant: bool = False):
        """A chain over ids of ``table`` from (coefficient, ids) pairs."""
        c = cls.__new__(cls)
        c.degree, c.coinvariant, c.table = degree, coinvariant, table
        c._merge((coeff, c._canonical(ids), None) for coeff, ids in pairs)
        return c

    def _canonical(self, ids: Ids) -> Ids:
        return self.table.canonical(ids) if self.coinvariant else ids

    def _keyed(self, terms):
        intern, length = self.table.intern, self.degree + self._extra
        for coeff, tup in terms:
            if len(tup) != length:
                raise ValueError(f"terms of this chain have length {length}")
            yield coeff, self._canonical(tuple(map(intern, tup))), None

    def _aligned(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return ((c, self._canonical(ids), r)
                for c, ids, r in super()._aligned(other))

    def pairs(self) -> Iterable[tuple[int, Ids]]:
        """(coefficient, ids) for every term, in order."""
        return ((t[0], ids) for ids, t in self._terms.items())

    def __iter__(self):
        elements = self.table.elements
        return ((t[0], tuple(elements[i] for i in ids))
                for ids, t in self._terms.items())

    def interned(self, table: SymbolTable):
        """The same chain keyed through ``table``; terms whose elements
        ``table`` identifies merge."""
        if table is self.table:
            return self
        return self._on(table, self.degree,
                        ((c, tuple(map(table.intern, sym))) for c, sym in self),
                        self.coinvariant)

    def is_empty(self) -> bool:
        return self.is_zero()


class BarChain(_Chain):
    """Integer combination of bar symbols [g1|...|gn], all of one degree."""

    __slots__ = ()

    def __init__(self, degree: int, terms: Iterable[tuple[int, GTuple]]):
        super().__init__(degree, terms, False)

    def __repr__(self) -> str:
        return f"BarChain(degree={self.degree}, {len(self)} terms)"


class HomChain(_Chain):
    """Integer combination of homogeneous tuples (g0,...,gn).

    With ``coinvariant=True`` every tuple is left-translated so its first
    entry is the identity before merging; this is the quotient by the
    diagonal group action, where cycles live.  A sum keeps the left
    operand's form.
    """

    __slots__ = ()
    _extra = 1

    def __init__(self, degree: int, terms: Iterable[tuple[int, GTuple]],
                 coinvariant: bool = False):
        super().__init__(degree, terms, coinvariant)

    def __repr__(self) -> str:
        tag = ", coinvariant" if self.coinvariant else ""
        return f"HomChain(degree={self.degree}, {len(self)} terms{tag})"


# ---------------------------------------------------------------------------
# conversions and boundaries


def inhom_to_hom(c: BarChain) -> HomChain:
    """[g1|...|gn] -> (1, g1, g1 g2, ..., g1...gn), termwise."""
    table = c.table
    out = []
    for coeff, ids in c.pairs():
        tup = [table.identity]
        for i in ids:
            tup.append(table.mul(tup[-1], i))
        out.append((coeff, tuple(tup)))
    return HomChain._on(table, c.degree, out, True)


def hom_to_inhom(c: HomChain) -> BarChain:
    """(g0,...,gn) -> [g0^-1 g1 | ... | g_{n-1}^-1 gn], termwise.
    Independent of the coinvariant representative."""
    table = c.table
    out = []
    for coeff, ids in c.pairs():
        sym = tuple(table.ldiv(ids[i], ids[i + 1])
                    for i in range(len(ids) - 1))
        out.append((coeff, sym))
    return BarChain._on(table, c.degree, out)


def _bar_faces(c: BarChain) -> dict[Ids, int]:
    """The bar boundary of ``c`` (degree >= 1) summed into a dict, face ids
    -> coefficient, in first-met order, zero sums kept: per term the face
    dropping the first symbol, those merging adjacent pairs (each product
    formed in turn) and the one dropping the last."""
    mul, n = c.table.mul, c.degree
    acc: dict[Ids, int] = {}
    get = acc.get
    for ids, t in c._terms.items():
        coeff = t[0]
        face = ids[1:]
        acc[face] = get(face, 0) + coeff
        for i in range(n - 1):
            face = ids[:i] + (mul(ids[i], ids[i + 1]),) + ids[i + 2:]
            acc[face] = get(face, 0) + coeff * _SIGNS[i + 1]
        face = ids[:-1]
        acc[face] = get(face, 0) + coeff * _SIGNS[n]
    return acc


def bar_boundary(c: BarChain) -> BarChain:
    """Alternating sum dropping the first symbol, merging adjacent pairs,
    and dropping the last."""
    if c.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    faces = _bar_faces(c)
    return BarChain._on(c.table, c.degree - 1,
                        ((coeff, face) for face, coeff in faces.items()))


def hom_boundary(c: HomChain) -> HomChain:
    """Alternating face sum; faces of coinvariant chains are re-canonicalized
    before merging."""
    if c.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    return HomChain._on(c.table, c.degree - 1,
                        [(coeff * s, face) for coeff, ids in c.pairs()
                         for s, face in _faces(ids)], c.coinvariant)


def _faces(ids: Ids) -> _Terms:
    """(-1)^i and ``ids`` less its entry i, for i = 0, 1, ... (the order
    reverses that of ``combinations``, which first drops the last entry)."""
    return list(zip(_SIGNS, reversed([*combinations(ids, len(ids) - 1)])))


def cone(g: GroupElement, c: HomChain) -> HomChain:
    """Prepend g to every tuple.  Satisfies d(cone) = id - cone(d)."""
    if c.degree + 1 > MAX_DEGREE:
        raise ValueError("cone would exceed the supported degree range")
    apex = c.table.intern(g)
    return HomChain._on(c.table, c.degree + 1,
                        ((coeff, (apex,) + ids) for coeff, ids in c.pairs()))


def _residual(c: BarChain) -> BarChain:
    return bar_boundary(c) if c.degree else BarChain._on(c.table, 0, [])


def is_cycle(c: BarChain) -> tuple[bool, BarChain]:
    """True when the bar boundary merges to the empty chain, with symbols
    identified at the comparison tolerance of ``c``'s table (see
    ``SymbolTable``); the residual chain is returned either way."""
    res = _residual(c.interned(SymbolTable(c.table.tol)))
    return res.is_empty(), res


def _checked_cycle(c: BarChain, table: SymbolTable | None = None) -> HomChain:
    """``c`` re-interned into ``table`` (``c.table``, or by default a new
    table for one evaluation at ``c.table``'s tolerance) in homogeneous
    form; raises NotACycle (a ValueError) unless it is a 3-cycle there."""
    if c.degree != 3:
        raise NotACycle(f"evaluation needs a 3-cycle, got degree {c.degree}")
    c = c.interned(table or SymbolTable(c.table.tol))
    if nonzero := sum(1 for coeff in _bar_faces(c).values() if coeff):
        raise NotACycle(f"not a cycle: boundary has {nonzero} terms")
    return inhom_to_hom(c)


def conjugate_chain(g: GroupElement, c: BarChain) -> BarChain:
    """Entrywise conjugation g . g_i . g^-1 of every symbol, formed once
    per distinct id of ``c`` and keyed, in first-met order, on a table of
    its own at ``c.table``'s tolerance."""
    ginv, elements = g.inverse(), c.table.elements
    table = SymbolTable(c.table.tol)
    first_met = dict.fromkeys(i for _, ids in c.pairs() for i in ids)
    conj = {i: table.intern(g @ elements[i] @ ginv) for i in first_met}
    return BarChain._on(table, c.degree,
                        ((coeff, tuple([conj[i] for i in ids]))
                         for coeff, ids in c.pairs()))


# ---------------------------------------------------------------------------
# goodness predicates


def _hom(c) -> HomChain:
    return inhom_to_hom(c) if isinstance(c, BarChain) else c


def is_good(c) -> tuple[bool, list]:
    """All pairs within each homogeneous tuple satisfy g_i != +-g_j, at the
    tolerance of the chain's symbol table.

    Returns (ok, offending): offenders are (term index, i, j) triples.
    """
    hom = _hom(c)
    offending = _offending(hom.table, hom.pairs())
    return not offending, offending


def _offending(table: SymbolTable, terms: Iterable[tuple[int, Ids]]) -> list:
    """(term index, i, j) for every +-coincident pair within a term."""
    good = table.good
    return [(t_idx, i, j) for t_idx, (_, ids) in enumerate(terms)
            for i, j in combinations(range(len(ids)), 2)
            if not good((ids[i], ids[j]))]


def near_pairs(vecs: Sequence[ProjVector]) -> list[tuple[int, int]]:
    """Index pairs (i, j) whose determinant |det(v_i, v_j)| is at or below
    the scale-relative threshold ``config.VGOOD * |v_i| |v_j|``."""
    return [(i, j) for i, j in combinations(range(len(vecs)), 2)
            if abs(det_pair(vecs[i], vecs[j]))
            <= config.VGOOD * (vecs[i].norm() * vecs[j].norm())]


class _Plan(Record):
    """What every trial on a renaming of the ids of the (coefficient, ids)
    terms of a homogeneous chain shares, built in one pass over the terms:
    ``slots``, the distinct ids in first-met order; ``pairs``, the distinct
    ordered id pairs (g_i, g_j) met within a term, in first-met order
    (within a term, ``combinations`` order), as pairs of slot indices;
    ``firsts``, the index in ``pairs`` of the first pair of each distinct
    edge g_i^-1 g_j, as ``table.ldiv`` keys it, asked once per pair in pair
    order; ``rows``, per term its coefficient followed by the indices in
    ``firsts`` of its pairs' edges, in ``combinations`` order, so that a
    trial's rows index its distinct-edge Log dets directly (see
    ``covering._lhat_sums``).  An edge between two translates by one
    factor of a known edge is a memo answer of ``ldiv``, not a product."""

    __slots__ = ("slots", "pairs", "firsts", "rows")

    def __init__(self, table: SymbolTable, terms: Iterable[tuple[int, Ids]]):
        ldiv = table.ldiv
        slot_of: dict[int, int] = {}
        edge_of: dict[tuple[int, int], int] = {}  # id pair -> edge index
        at: dict[int, int] = {}  # edge id -> edge index
        pairs, firsts, rows = [], [], []
        for coeff, ids in terms:
            for i in ids:
                if i not in slot_of:
                    slot_of[i] = len(slot_of)
            row = [coeff]
            for key in combinations(ids, 2):
                x = edge_of.get(key)
                if x is None:
                    e = ldiv(*key)
                    x = at.get(e)
                    if x is None:
                        x = at[e] = len(firsts)
                        firsts.append(len(pairs))
                    edge_of[key] = x
                    pairs.append((slot_of[key[0]], slot_of[key[1]]))
                row.append(x)
            rows.append(tuple(row))
        super().__init__(list(slot_of), pairs, firsts, rows)


def _v_pass(elements: list[GroupElement], plan: _Plan, ids: list[int],
            v: ProjVector) -> list[complex] | None:
    """One pass of v over ``plan`` with its slots holding ``ids`` (ids of
    ``elements``): each slot's element is applied to v once, in slot order,
    and each pair (g_i, g_j) gets det(g_i v, g_j v) once, in pair order,
    tested as ``near_pairs`` tests it, on plain (w1, w2, |w|) tuples with
    the float operations and nonzero check of ``GroupElement.apply``,
    ``ProjVector.norm`` and ``det_pair``.  Returns the dets by pair, or
    None at the first near pair."""
    vgood, zero, v1, v2 = config.VGOOD, config.ZERO, v.v1, v.v2
    vecs = []
    for i in ids:
        g = elements[i]
        w1, w2 = g.a * v1 + g.b * v2, g.c * v1 + g.d * v2
        n1, n2 = abs(w1), abs(w2)
        if max(n1, n2) <= zero:
            raise ValueError("projective vector must be nonzero")
        vecs.append((w1, w2, math.hypot(n1, n2)))
    dets = []
    for a, b in plan.pairs:
        x1, x2, nx = vecs[a]
        y1, y2, ny = vecs[b]
        d = x1 * y2 - x2 * y1
        if abs(d) <= vgood * (nx * ny):
            return None
        dets.append(d)
    return dets


def is_v_good(c, v: ProjVector) -> tuple[bool, list]:
    """All pairs satisfy |det(g_i v, g_j v)| above the scale-relative
    threshold.  Returns (ok, offending (term index, i, j) triples), the
    offenders by ``near_pairs`` on each term's tuple."""
    offending = [(t_idx, i, j) for t_idx, (_, tup) in enumerate(_hom(c))
                 for i, j in near_pairs([g.apply(v) for g in tup])]
    return not offending, offending


def _sample_v(accept, rng) -> tuple[ProjVector, int, object]:
    """The rejection loop: (v, attempts, ``accept(v)``) for the first of
    up to ``V_ATTEMPTS`` draws of v from ``rng`` that ``accept`` does not
    refuse by returning None."""
    for attempt in range(1, V_ATTEMPTS + 1):
        v = random_vector(rng)
        got = accept(v)
        if got is not None:
            return v, attempt, got
    raise SamplingExhausted(
        f"no v-good vector in {V_ATTEMPTS} attempts; "
        "the chain is likely not good or the tolerance is too tight")


def sample_generic_v(c, rng_or_seed) -> tuple[ProjVector, int]:
    """Rejection-sample a vector making the chain v-good.

    The failure locus is a finite union of hypersurfaces, so a good chain
    succeeds almost surely within a few draws.  Returns (v, attempts).
    Each draw is judged by ``is_v_good``, in the loop a trial's v is
    drawn in (``_sample_v``).
    """
    hom = _hom(c)
    v, attempts, _ = _sample_v(lambda v: is_v_good(hom, v)[0] or None,
                               as_rng(rng_or_seed))
    return v, attempts


# ---------------------------------------------------------------------------
# repair of cycles to good representatives


class RepairResult(Record):
    """A good cycle homologous to the input, with the certificate: the
    HomChains ``phi_image`` = hom - B + phi(B), ``homotopy`` = H(B) and
    ``original_hom`` = hom, B the bad part of hom.  H(B) is coinvariant,
    with boundary(H) = phi(B) - B verifiable directly, and coned off the
    identity so only phi draws apexes."""

    __slots__ = ("phi_image", "homotopy", "original_hom")

    @property
    def chain(self) -> BarChain:
        """The repaired cycle in bar form."""
        return hom_to_inhom(self.phi_image)


class _ConeRepairer:
    """Recursive cone construction of a chain map phi into good chains and a
    homotopy H with dH + Hd = phi - id, one recursion for both.

    A good tuple is kept: phi(s) = s and H(s) = 0.  Goodness is pairwise,
    so every face of a good tuple is good and both identities hold on it.
    A bad tuple s is coned off an apex a, phi(s) = cone(a, phi(ds)), and H
    off the identity, H(s) = cone(1, X) with X = phi(s) - s - H(ds): X is a
    cycle by induction, so any apex bounds it, and only phi's chains (pushed
    through a vector) need a generic one.  phi is a chain map for any apex
    per tuple, so each degree's apex is reused while it clears
    ``config.APEX_MARGIN`` against phi(ds), which holds only lower-degree
    apexes, and redrawn when not; cone terms over shared apexes cancel.
    ``images`` gives (phi(s), H(s)) on canonical orbit representatives,
    memoized by the canonical id tuple so shared faces get identical
    images, and extended equivariantly.  Images are (coefficient, ids)
    lists, merged as ``linear`` merges: equal tuples add, zeros drop.
    """

    def __init__(self, rng, table: SymbolTable):
        self.rng = rng
        self.table = table
        self._memo: dict[Ids, tuple[_Terms, _Terms]] = {}
        self._apex: dict[int, int] = {}  # tuple length -> current apex id

    def _clears(self, g: GroupElement, ids: Iterable[int]) -> bool:
        """g lies over ``config.APEX_MARGIN`` from +-every id in ``ids``:
        ``sign_equiv`` at the margin, asked only of an element whose first
        entry is within the margin of +-g's (its first test either way)."""
        elements, margin, a = self.table.elements, config.APEX_MARGIN, g.a
        for i in ids:
            h = elements[i]
            if ((abs(a - h.a) <= margin or abs(a + h.a) <= margin)
                    and g.sign_equiv(h, margin)):
                return False
        return True

    def _generic_avoiding(self, ids: Sequence[int]) -> GroupElement:
        for _ in range(APEX_ATTEMPTS):
            g = random_sl2(self.rng)
            if self._clears(g, ids):
                return g
        raise RepairFailed(
            f"no generic cone apex in {APEX_ATTEMPTS} attempts")

    def _apex_for(self, length: int, phi: _Terms) -> int:
        """The apex id for coning ``phi`` into tuples of ``length``: the
        current one while it clears ``phi``, else a new draw.  Each reuse
        test, as (``_REUSE``, apex id, ids tested, outcome), and each draw,
        as (``_DRAW``, None, ids the apex clears, apex id), goes on the
        table's tape when one is on."""
        table, tape = self.table, self.table.tape
        ids = {i for _, t in phi for i in t}
        apex = self._apex.get(length)
        if apex is not None:
            cleared = self._clears(table.elements[apex], ids)
            if tape is not None:
                tape.append((_REUSE, apex, ids, cleared))
            if cleared:
                return apex
        apex = self._apex[length] = table.intern(self._generic_avoiding(ids))
        if tape is not None:
            tape.append((_DRAW, None, ids, apex))
        return apex

    def images(self, ids: Ids) -> tuple[_Terms, _Terms]:
        """(phi(s), H(s)) for the tuple s = ``ids``."""
        table = self.table
        first = ids[0]
        canon = ids if first == table.identity else table.canonical(ids)
        pair = self._memo.get(canon)
        if pair is None:
            if table.good(canon):
                pair = [(1, canon)], []
            else:
                faces = [(c, self.images(f)) for c, f in _faces(canon)]
                phi = self.linear((c, img[0]) for c, img in faces)  # phi(ds)
                if phi:
                    apex = (self._apex_for(len(canon), phi),)
                    phi = [(d, apex + t) for d, t in phi]
                # else cone(a, 0) = 0 for every apex a: draw none
                # X = phi(s) - s - H(ds)
                x = self.linear([(1, phi), (-1, [(1, canon)]),
                                 *((-c, img[1]) for c, img in faces)])
                one = (table.identity,)
                pair = phi, [(d, one + t) for d, t in x]
            self._memo[canon] = pair
        if first == table.identity:
            return pair
        mul = table.mul
        return ([(c, tuple([mul(first, i) for i in t])) for c, t in pair[0]],
                [(c, tuple([mul(first, i) for i in t])) for c, t in pair[1]])

    def linear(self, sums: Iterable[tuple[int, _Terms]],
               canonical: bool = False) -> _Terms:
        """The sum of coefficient times term list over ``sums``, merged:
        equal tuples add, first-seen order, zeros dropped, tuples keyed by
        their canonical representative when ``canonical`` (a tuple that
        starts with the identity is its own)."""
        one, canon = self.table.identity, self.table.canonical
        acc: dict[Ids, int] = {}
        get = acc.get
        for coeff, terms in sums:
            for c, t in terms:
                if canonical and t[0] != one:
                    t = canon(t)
                acc[t] = get(t, 0) + coeff * c
        return [(c, t) for t, c in acc.items() if c]


def _repair_core(hom: HomChain, rng) -> tuple[_Terms, _Terms, _Terms]:
    """Repair of a homogeneous cycle interned for this evaluation: the
    merged (coefficient, ids) lists phi(B), phi = hom - B + phi(B) and
    H = H(B) for its bad part B, off one apex per degree from rng (redrawn
    for a tuple it does not clear).  Checks that phi(B) is good (kept
    tuples are) and the certificate dH(B) = phi(B) - B.  Builds no chain."""
    table = hom.table
    good, bad = [], []
    for term in hom.pairs():
        (good if table.good(term[1]) else bad).append(term)
    rep = _ConeRepairer(rng, table)
    imgs = [(c, rep.images(ids)) for c, ids in bad]
    phi_bad = rep.linear(((c, img[0]) for c, img in imgs), True)
    _check_good(table, phi_bad)
    h = rep.linear((c, img[1]) for c, img in imgs)  # (1, ...): canonical
    residual = rep.linear([*((c, _faces(ids)) for c, ids in h),
                           (-1, phi_bad), (1, bad)], True)
    if residual:
        raise RepairFailed(f"homotopy certificate failed: "
                           f"{len(residual)} residual terms")
    return phi_bad, rep.linear([(1, good), (1, phi_bad)]), h


def _repairs(hom: HomChain, rng, trials: int):
    """(plan, ids) for each of ``trials`` trials of one evaluation of
    ``hom``, yielded in turn, each drawn from ``rng`` only when asked for
    (so v, drawn between trials, falls between them): the ``_Plan`` of the
    trial's phi and the ids its slots hold.  A trial repaired in full
    gives a plan of its own, with its own slots as ids.  With more than
    one trial, the first trial's repair and plan (its edges' quotients
    included) record the table's tape, compiled once (``_compiled``); a
    later trial replays it at its own apexes (``_replay``) and gives the
    first trial's plan, with the first trial's ids from ``base`` (the
    table's length before it) on moved by the replay's offset, or repairs
    in full on the same draws when a decision differs.  One trial records
    and compiles nothing."""
    table = hom.table
    base = len(table.elements)
    table.tape = [] if trials > 1 else None
    phi_bad, phi, _ = _repair_core(hom, rng)
    plan = _Plan(table, phi)
    events, table.tape = table.tape, None
    yield plan, plan.slots
    if trials < 2:
        return
    tape = _compiled(events, phi_bad, base, len(table.elements))
    for _ in range(trials - 1):
        draws = _Rewindable(rng)
        shift = _replay(table, draws, tape)
        if shift is None:
            draws.rewind()
            full = _Plan(table, _repair_core(hom, draws)[1])
            yield full, full.slots
        else:
            yield plan, [i if i < base else i + shift for i in plan.slots]


def _check_good(table: SymbolTable, phi_bad: _Terms) -> None:
    """RepairFailed unless every term of ``phi_bad`` is good (memoized
    ``SymbolTable.good``); the offenders are listed only on failure."""
    good = table.good
    if not all(good(ids) for _, ids in phi_bad):
        offenders = _offending(table, phi_bad)
        raise RepairFailed(f"cone image not good: offenders {offenders[:3]}")


def _compiled(events: list, phi_bad: _Terms, base: int, size: int) -> tuple:
    """The first trial's tape ``events`` and cone image ``phi_bad``,
    compiled once per evaluation for ``_replay``, with ``base`` and
    ``size`` the table's length before and after the first trial: (steps,
    pairs, base, size, phi_bad).  Ids are handed out in order and every
    id the first trial added (those from ``base`` on) comes from one step
    of the tape, so a replay that matches every decision adds its own at
    the same steps: the first trial's moved by one offset.  ``steps`` are
    the events, each reuse test's and draw's id set as a tuple, less every
    product or quotient whose operands and result are all below ``base``:
    the first trial memoized it, so its answer holds in every replay.
    ``pairs`` are the unordered id pairs within a term of ``phi_bad`` with
    an id from ``base`` on, first met first; the others passed the first
    trial's goodness test."""
    steps = []
    for op, a, b, r in events:
        if op >= _REUSE:
            steps.append((op, a, tuple(b), r))
        elif max(a, b, r) >= base:
            steps.append((op, a, b, r))
    pairs = {}
    for _, ids in phi_bad:
        for i, j in combinations(ids, 2):
            if i >= base or j >= base:
                pairs[(i, j) if i <= j else (j, i)] = None
    return steps, list(pairs), base, size, phi_bad


def _replay(table: SymbolTable, rng, tape: tuple) -> int | None:
    """The offset by which this later trial moves the first trial's ids
    from ``base`` on (the table's length at its start less ``base``), or
    None as soon as a decision differs from the compiled ``tape``'s (see
    ``_compiled``).

    One pass takes every step again with the ids moved: each product or
    quotient is formed by ``SymbolTable._form`` and each apex drawn afresh
    from ``rng`` through the same ``random_sl2``/``_clears`` loop and
    interned, and each must land on the recorded id moved; each reuse test
    must come out as recorded.  A memo answer of trial 1 is no event and
    holds for the moved ids as it did.  When all match, phi(B), H(B), the
    certificate residual and the edges are the first trial's moved, so the
    residual is empty as it was; phi(B)'s pairs with a moved id are tested
    for +-coincidence, which raises RepairFailed as ``_repair_core``
    would.  The trial's ids get no memo entries, since no later trial asks
    about them.  Draws nothing a full repair on the same stream would not
    draw first.
    """
    steps, pairs, base, size, phi_bad = tape
    elements, form, tol = table.elements, table._form, table.tol
    rep = _ConeRepairer(rng, table)
    shift = len(elements) - base
    ren = [*range(base), *range(base + shift, size + shift)]
    for op, a, b, r in steps:
        if op <= _LDIV:
            got = form(op, elements[ren[a]], elements[ren[b]])
        elif op == _REUSE:
            if rep._clears(elements[ren[a]], [ren[i] for i in b]) != r:
                return None
            continue
        else:
            got = table.intern(rep._generic_avoiding([ren[i] for i in b]))
        if got != ren[r]:
            return None
    for i, j in pairs:  # sign_equiv's first test either way, then it
        g, h = elements[ren[i]], elements[ren[j]]
        if ((abs(g.a - h.a) <= tol or abs(g.a + h.a) <= tol)
                and g.sign_equiv(h, tol)):
            _check_good(table, [(c, tuple([ren[k] for k in t]))
                                for c, t in phi_bad])
    return shift


class _Rewindable:
    """A generator over ``rng`` that keeps the values its ``uniform`` hands
    out; after ``rewind`` it hands the same values out again, then draws
    anew.  Every draw of a repair is ``uniform(-1, 1)``."""

    __slots__ = ("rng", "drawn", "at")

    def __init__(self, rng):
        self.rng, self.drawn, self.at = rng, [], 0

    def uniform(self, a: float, b: float) -> float:
        if self.at == len(self.drawn):
            self.drawn.append(self.rng.uniform(a, b))
        self.at += 1
        return self.drawn[self.at - 1]

    def rewind(self) -> None:
        self.at = 0


def repair_with_certificate(c: BarChain, seed) -> RepairResult:
    """Replace a 3-cycle by a homologous good cycle via the recursive cone
    chain map, returning the explicit, verified homotopy certificate.
    ``seed`` is an integer or a generator (see ``as_rng``)."""
    hom = _checked_cycle(c)
    _, phi, h = _repair_core(hom, as_rng(seed))
    return RepairResult(HomChain._on(hom.table, hom.degree, phi, True),
                        HomChain._on(hom.table, hom.degree + 1, h, True), hom)
