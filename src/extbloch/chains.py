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
re-interns its input into a new table (at the caller's tolerance, for
``is_cycle`` and ``ccs_value``) and leaves the input's table alone.

``repair_to_good`` replaces a cycle by a homologous one avoiding all
g_i = +-g_j coincidences, together with an explicit homotopy certificate;
it changes only the simplices that have such a coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from . import config
from .core import (GroupElement, ProjVector, as_rng, det_pair, random_sl2,
                   random_vector)
from .errors import NotACycle, RepairFailed, SamplingExhausted
from .formal import FormalSum
from .quantize import FuzzyIndex

GTuple = tuple[GroupElement, ...]
Ids = tuple[int, ...]
_Terms = list[tuple[int, Ids]]

MAX_DEGREE = 4  # the pipeline needs cycles (3) and homotopies (4) only
V_ATTEMPTS = 1000  # draws of v before ``sample_generic_v`` gives up


class SymbolTable:
    """Integer ids for the group elements of one computation.

    ``elements[i]`` is the first element seen with id ``i``.  Elements are
    keyed through a ``FuzzyIndex`` over their eight entry floats at the
    comparison tolerance ``tol``, ``config.CMP`` when not given and checked
    by ``config.check_cmp`` (see :mod:`extbloch.quantize` for what it
    identifies).
    Products g_i g_j, left quotients g_i^-1 g_j and sign coincidences of
    representatives are memoized by id; an inverse is never interned on
    its own.
    """

    def __init__(self, tol: float | None = None):
        self.tol = config.check_cmp(config.CMP if tol is None else tol)
        self.elements: list[GroupElement] = []
        self._index = FuzzyIndex(self.tol)
        self._products: dict[tuple[int, int], int] = {}
        self._quotients: dict[tuple[int, int], int] = {}
        self._coincide: dict[tuple[int, int], bool] = {}
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
            ident = self._products[(i, j)] = self.intern(
                self.elements[i] @ self.elements[j])
        return ident

    def ldiv(self, i: int, j: int) -> int:
        """The id of g_i^-1 g_j, formed from g_i's adjugate (d, -b, -c, a)
        with the float operations of ``g_i.inverse() @ g_j``."""
        if i == self.identity:  # 1^-1 g = g exactly: no product, no intern
            return j
        ident = self._quotients.get((i, j))
        if ident is None:
            g, h = self.elements[i], self.elements[j]
            a, b, c, d = g.d, -g.b, -g.c, g.a
            ident = self._quotients[(i, j)] = self.intern(GroupElement(
                a * h.a + b * h.c, a * h.b + b * h.d,
                c * h.a + d * h.c, c * h.b + d * h.d))
        return ident

    def coincide(self, i: int, j: int) -> bool:
        """g_i = +-g_j at ``tol``, decided once per unordered id pair."""
        key = (i, j) if i <= j else (j, i)
        hit = self._coincide.get(key)
        if hit is None:
            hit = self._coincide[key] = self.elements[i].sign_equiv(
                self.elements[j], self.tol)
        return hit

    def good(self, ids: Ids) -> bool:
        """No two entries of ``ids`` coincide up to sign."""
        return not any(self.coincide(i, j) for i, j in combinations(ids, 2))

    def canonical(self, ids: Ids) -> Ids:
        """Left-translate so the first entry is the identity."""
        first = ids[0]
        if first == self.identity:
            return ids
        return (self.identity,) + tuple(self.ldiv(first, i) for i in ids[1:])


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


def bar_boundary(c: BarChain) -> BarChain:
    """Alternating sum dropping the first symbol, merging adjacent pairs,
    and dropping the last."""
    if c.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    mul = c.table.mul
    out = []
    n = c.degree
    for coeff, ids in c.pairs():
        out.append((coeff, ids[1:]))
        for i in range(n - 1):
            merged = ids[:i] + (mul(ids[i], ids[i + 1]),) + ids[i + 2:]
            out.append((coeff * (-1) ** (i + 1), merged))
        out.append((coeff * (-1) ** n, ids[:-1]))
    return BarChain._on(c.table, n - 1, out)


def hom_boundary(c: HomChain) -> HomChain:
    """Alternating face sum; faces of coinvariant chains are re-canonicalized
    before merging."""
    if c.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    out = []
    for coeff, ids in c.pairs():
        for i in range(len(ids)):
            out.append((coeff * (-1) ** i, ids[:i] + ids[i + 1:]))
    return HomChain._on(c.table, c.degree - 1, out, c.coinvariant)


def cone(g: GroupElement, c: HomChain) -> HomChain:
    """Prepend g to every tuple.  Satisfies d(cone) = id - cone(d)."""
    if c.degree + 1 > MAX_DEGREE:
        raise ValueError("cone would exceed the supported degree range")
    apex = c.table.intern(g)
    return HomChain._on(c.table, c.degree + 1,
                        ((coeff, (apex,) + ids) for coeff, ids in c.pairs()))


def _residual(c: BarChain) -> BarChain:
    return bar_boundary(c) if c.degree else BarChain._on(c.table, 0, [])


def is_cycle(c: BarChain, tol: float | None = None) -> tuple[bool, BarChain]:
    """True when the bar boundary merges to the empty chain, with symbols
    identified at the comparison tolerance ``tol`` (see ``SymbolTable``);
    the residual chain is returned either way."""
    res = _residual(c.interned(SymbolTable(tol)))
    return res.is_empty(), res


def _checked_cycle(c: BarChain, table: SymbolTable) -> HomChain:
    """``c`` re-interned into ``table``, a new symbol table for one
    evaluation, in homogeneous form; raises NotACycle (a ValueError) unless
    it is a 3-cycle there."""
    if c.degree != 3:
        raise NotACycle(f"evaluation needs a 3-cycle, got degree {c.degree}")
    c = c.interned(table)
    residual = _residual(c)
    if not residual.is_empty():
        raise NotACycle(f"not a cycle: boundary has {len(residual)} terms")
    return inhom_to_hom(c)


def conjugate_chain(g: GroupElement, c: BarChain) -> BarChain:
    """Entrywise conjugation g . g_i . g^-1 of every symbol."""
    ginv = g.inverse()
    return BarChain(c.degree, [(coeff, tuple(g @ h @ ginv for h in sym))
                               for coeff, sym in c])


def complex_conjugate_chain(c: BarChain) -> BarChain:
    """Entrywise complex conjugation of every matrix."""
    return BarChain(c.degree,
                    [(coeff, tuple(h.conjugate_entries() for h in sym))
                     for coeff, sym in c])


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
    coincide = table.coincide
    return [(t_idx, i, j) for t_idx, (_, ids) in enumerate(terms)
            for i, j in combinations(range(len(ids)), 2)
            if coincide(ids[i], ids[j])]


def near_pairs(vecs: Sequence[ProjVector]) -> list[tuple[int, int]]:
    """Index pairs (i, j) whose determinant |det(v_i, v_j)| is at or below
    the scale-relative threshold ``config.VGOOD * |v_i| |v_j|``."""
    return [(i, j) for i, j in combinations(range(len(vecs)), 2)
            if abs(det_pair(vecs[i], vecs[j]))
            <= config.VGOOD * (vecs[i].norm() * vecs[j].norm())]


def _v_pass(elements: list[GroupElement], terms: _Terms, v: ProjVector):
    """One pass of v over the (coefficient, ids) ``terms`` of a homogeneous
    chain over ``elements``: every element is applied to v once and every
    id pair (g_i, g_j) met in a tuple, in tuple order, gets det(g_i v, g_j v)
    once, tested as ``near_pairs`` tests it.  Returns (offending (term
    index, i, j) triples, {(id_i, id_j): det})."""
    vecs: dict[int, tuple[ProjVector, float]] = {}
    dets: dict[tuple[int, int], complex] = {}
    near: dict[tuple[int, int], bool] = {}
    offending = []
    vgood = config.VGOOD
    for t_idx, (_, ids) in enumerate(terms):
        for i in ids:
            if i not in vecs:
                w = elements[i].apply(v)
                vecs[i] = (w, w.norm())
        for a, b in combinations(range(len(ids)), 2):
            key = (ids[a], ids[b])
            hit = near.get(key)
            if hit is None:
                (x, nx), (y, ny) = vecs[key[0]], vecs[key[1]]
                d = dets[key] = det_pair(x, y)
                hit = near[key] = abs(d) <= vgood * (nx * ny)
            if hit:
                offending.append((t_idx, a, b))
    return offending, dets


def is_v_good(c, v: ProjVector) -> tuple[bool, list]:
    """All pairs satisfy |det(g_i v, g_j v)| above the scale-relative
    threshold.  Returns (ok, offending (term index, i, j) triples)."""
    hom = _hom(c)
    offending, _ = _v_pass(hom.table.elements, list(hom.pairs()), v)
    return not offending, offending


def _sample_v(elements: list[GroupElement], terms: _Terms, rng):
    """``sample_generic_v`` on the (coefficient, ids) ``terms`` of a
    homogeneous chain over ``elements``, also returning the accepted v's
    determinants by id pair (see ``_v_pass``)."""
    for attempt in range(1, V_ATTEMPTS + 1):
        v = random_vector(rng)
        offending, dets = _v_pass(elements, terms, v)
        if not offending:
            return v, attempt, dets
    raise SamplingExhausted(
        f"no v-good vector in {V_ATTEMPTS} attempts; "
        "the chain is likely not good or the tolerance is too tight")


def sample_generic_v(c, rng_or_seed) -> tuple[ProjVector, int]:
    """Rejection-sample a vector making the chain v-good.

    The failure locus is a finite union of hypersurfaces, so a good chain
    succeeds almost surely within a few draws.  Returns (v, attempts).
    Each draw is checked by the one pass ``is_v_good`` also runs.
    """
    hom = _hom(c)
    v, attempts, _ = _sample_v(hom.table.elements, list(hom.pairs()),
                               as_rng(rng_or_seed))
    return v, attempts


# ---------------------------------------------------------------------------
# repair of cycles to good representatives


@dataclass
class RepairResult:
    """A good cycle homologous to the input, with the certificate.

    ``phi_image`` is hom - B + phi(B), B the bad part of ``original_hom``;
    ``homotopy`` is the coinvariant H(B), with boundary(H) = phi(B) - B,
    verifiable directly, coned off the identity so only phi draws apexes.
    """

    phi_image: HomChain
    homotopy: HomChain
    original_hom: HomChain

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
    lists: only ``linear``, whose sums cancel, merges terms.
    """

    def __init__(self, rng, table: SymbolTable):
        self.rng = rng
        self.table = table
        self._memo: dict[Ids, tuple[_Terms, _Terms]] = {}
        self._apex: dict[int, int] = {}  # tuple length -> current apex id

    def _clears(self, g: GroupElement, terms: _Terms) -> bool:
        """g lies over ``config.APEX_MARGIN`` from +-every id in ``terms``."""
        elements = self.table.elements
        return all(g.sign_distance(elements[i]) > config.APEX_MARGIN
                   for i in {i for _, ids in terms for i in ids})

    def _generic_avoiding(self, terms: _Terms) -> GroupElement:
        for _ in range(1000):
            g = random_sl2(self.rng)
            if self._clears(g, terms):
                return g
        raise RepairFailed("could not sample a generic cone apex")

    def images(self, ids: Ids) -> tuple[_Terms, _Terms]:
        """(phi(s), H(s)) for the tuple s = ``ids``."""
        table = self.table
        canon = table.canonical(ids)
        pair = self._memo.get(canon)
        if pair is None:
            if table.good(canon):
                pair = [(1, canon)], []
            else:
                faces = [(c, self.images(f)) for c, f in _faces(canon)]
                phi = self.linear((c, img[0]) for c, img in faces)
                if phi:
                    apex = self._apex.get(len(canon))
                    if apex is None or not self._clears(
                            table.elements[apex], phi):
                        apex = self._apex[len(canon)] = table.intern(
                            self._generic_avoiding(phi))
                    phi = [(c, (apex,) + t) for c, t in phi]
                # else cone(a, 0) = 0 for every apex a: draw none
                one = (table.identity,)
                x = self.linear([(1, phi), (-1, [(1, canon)]),
                                 *((-c, img[1]) for c, img in faces)])
                pair = phi, [(c, one + t) for c, t in x]
            self._memo[canon] = pair
        first = ids[0]
        if first == table.identity:
            return pair
        mul = table.mul
        return tuple([(c, tuple(mul(first, i) for i in t)) for c, t in terms]
                     for terms in pair)

    def linear(self, sums: Iterable[tuple[int, _Terms]],
               canonical: bool = False) -> _Terms:
        """The sum of coefficient times term list over ``sums``, merged:
        equal tuples add, first-seen order, zeros dropped, tuples keyed by
        their canonical representative when ``canonical``."""
        canon = self.table.canonical if canonical else None
        acc: dict[Ids, int] = {}
        for coeff, terms in sums:
            for c, t in terms:
                if canon:
                    t = canon(t)
                acc[t] = acc.get(t, 0) + coeff * c
        return [(c, t) for t, c in acc.items() if c]


def _faces(ids: Ids) -> _Terms:
    return [((-1) ** i, ids[:i] + ids[i + 1:]) for i in range(len(ids))]


def _repair_core(hom: HomChain, rng) -> tuple[_Terms, _Terms]:
    """Repair of a homogeneous cycle interned for this evaluation: the
    merged (coefficient, ids) lists phi = hom - B + phi(B) and H = H(B) for
    its bad part B, off one apex per degree from rng (redrawn for a tuple
    it does not clear).  Checks that phi(B) is good (kept tuples are) and
    the certificate dH(B) = phi(B) - B.  Builds no chain."""
    table = hom.table
    good, bad = [], []
    for term in hom.pairs():
        (good if table.good(term[1]) else bad).append(term)
    rep = _ConeRepairer(rng, table)
    imgs = [(c, rep.images(ids)) for c, ids in bad]
    phi_bad = rep.linear(((c, img[0]) for c, img in imgs), True)
    if offenders := _offending(table, phi_bad):
        raise RepairFailed(f"cone image not good: offenders {offenders[:3]}")
    h = rep.linear((c, img[1]) for c, img in imgs)  # (1, ...): canonical
    residual = rep.linear([*((c, _faces(ids)) for c, ids in h),
                           (-1, phi_bad), (1, bad)], True)
    if residual:
        raise RepairFailed(f"homotopy certificate failed: "
                           f"{len(residual)} residual terms")
    return rep.linear([(1, good), (1, phi_bad)]), h


def repair_with_certificate(c: BarChain, seed) -> RepairResult:
    """Replace a 3-cycle by a homologous good cycle via the recursive cone
    chain map, returning the explicit, verified homotopy certificate.
    ``seed`` is an integer or a generator (see ``as_rng``)."""
    hom = _checked_cycle(c, SymbolTable())
    phi, h = _repair_core(hom, as_rng(seed))
    return RepairResult(HomChain._on(hom.table, hom.degree, phi, True),
                        HomChain._on(hom.table, hom.degree + 1, h, True), hom)


def repair_to_good(c: BarChain, seed) -> BarChain:
    """As repair_with_certificate but returning only the repaired chain.
    Only simplices with +-coincident entries are replaced, so an
    already-good cycle comes back unchanged."""
    return repair_with_certificate(c, seed).chain
