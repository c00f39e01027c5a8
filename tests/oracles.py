"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own code paths: the dilogarithm is
integrated by composite Simpson from its defining integral, the wedge
identity is expanded over opaque symbols with a dict, not the library's
wedge type, the canonical JSON text is written by a plain recursive
``isinstance`` dispatch, element by element, and float vectors are keyed
by a frozen copy of the fuzzy index that rounds with ``round`` to int cells.
A trial plan's Log-det edges are checked against ``ldiv`` and against
quotients formed here from the entries.  The report ``ccs_value`` must
give is rebuilt from successive ``lambda_hat`` calls, each a full repair,
summed through the object path (``to_covering_point``, ``lhat``, ``vol``).
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from itertools import combinations, product
from operator import sub

from extbloch.core import as_rng
from extbloch.covering import to_covering_point
from extbloch.dilog import TWO_PI_SQ, lhat, vol
from extbloch.errors import OutOfGrid
from extbloch.pipeline import CcsReport, lambda_hat


def li2_simpson(z: complex, panels: int | None = None) -> complex:
    """-int_0^1 Log(1 - t z)/t dt by composite Simpson on [0, 1].

    The integrand is smooth there for z off [1, oo); the removable
    singularity at t = 0 has limit z.  The panel count adapts to the
    distance from the endpoint singularity at z = 1.
    """
    z = complex(z)
    if z == 0:
        return 0j
    if panels is None:
        d = abs(1.0 - z)
        panels = max(4096, min(int(4000.0 / max(d, 1e-3)), 400000))
    if panels % 2:
        panels += 1
    h = 1.0 / panels

    def f(t: float) -> complex:
        if t == 0.0:
            return z
        return -cmath.log(1.0 - t * z) / t

    acc = f(0.0) + f(1.0)
    for k in range(1, panels):
        acc += f(k * h) * (4 if k % 2 else 2)
    return acc * h / 3.0


def vol_simpson(z: complex) -> float:
    """Oriented simplex volume from its integral form:
    Arg(1-z) ln|z| + Im(li2(z)), with li2 from the quadrature oracle."""
    return cmath.phase(1.0 - z) * cmath.log(abs(z)).real + li2_simpson(z).imag


# ---------------------------------------------------------------------------
# symbolic wedge expansion over index pairs (independent of WedgeElement)


def _wedge_insert(acc: dict, coeff: int, a, b):
    if a == b:
        return
    if a > b:
        a, b = b, a
        coeff = -coeff
    acc[(a, b)] = acc.get((a, b), 0) + coeff
    if acc[(a, b)] == 0:
        del acc[(a, b)]


def nu_sigma_symbolic(indices=(0, 1, 2, 3)) -> dict:
    """w0 ^ w1 of the log-determinant flattening, expanded over symbols
    (i, j) = 'log det(v_i, v_j)'."""
    i0, i1, i2, i3 = indices
    w0 = [(1, (i0, i3)), (1, (i1, i2)), (-1, (i0, i2)), (-1, (i1, i3))]
    w1 = [(1, (i0, i2)), (1, (i1, i3)), (-1, (i0, i1)), (-1, (i2, i3))]
    acc: dict = {}
    for ca, a in w0:
        for cb, b in w1:
            _wedge_insert(acc, ca * cb, a, b)
    return acc


def mu_symbolic(indices) -> dict:
    """(01)^(02) - (01)^(12) + (02)^(12) over symbolic index pairs."""
    i0, i1, i2 = indices
    acc: dict = {}
    _wedge_insert(acc, +1, (i0, i1), (i0, i2))
    _wedge_insert(acc, -1, (i0, i1), (i1, i2))
    _wedge_insert(acc, +1, (i0, i2), (i1, i2))
    return acc


def mu_boundary_symbolic() -> dict:
    """sum_i (-1)^i mu(face_i) over the faces of (v0, v1, v2, v3)."""
    acc: dict = {}
    for i in range(4):
        face = tuple(j for j in range(4) if j != i)
        for (a, b), c in mu_symbolic(face).items():
            _wedge_insert(acc, (-1) ** i * c, a, b)
    return acc


def dict_difference(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for k, v in d2.items():
        out[k] = out.get(k, 0) - v
        if out[k] == 0:
            del out[k]
    return out


# ---------------------------------------------------------------------------
# canonical JSON text, element by element (the reference for chainio's writer)


def fmt_reference(value) -> str:
    """The canonical JSON text of ``value``: insertion key order, floats
    with 17 significant digits, ``null`` for a float that is not finite."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        out = format(value, ".17g")
        return out if out not in ("inf", "-inf", "nan") else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt_reference(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {fmt_reference(v)}"
                 for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


# ---------------------------------------------------------------------------
# fuzzy index with int cells (the reference for quantize.FuzzyIndex)


class FuzzyIndexReference:
    """``quantize.FuzzyIndex`` as it keyed values with int cells from
    ``round``, frozen as the reference for its ids, stored vectors and
    cells, with three changes: every coordinate in the guard band splits,
    where the frozen copy split at most 6; the cells are ``tol / GUARD``
    wide, where the frozen copy's were ``tol`` wide, so that OutOfGrid is
    raised where ``x / tol``, not ``x / cell``, is infinite; and the guard
    band reaches 2 ulps of ``x / cell`` further, so that a value ``tol``
    from a stored one across a boundary splits whatever the rounding."""

    GUARD = 1e-3
    CLEAR = 0.5 - 2 * GUARD

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = tol / self.GUARD
        self._seen: dict = {}
        self._cells: dict = {}
        self._reps: list = []

    def __len__(self) -> int:
        return len(self._reps)

    def key(self, values) -> int:
        vals = tuple(values)
        ident = self._seen.get(vals)
        if ident is not None:
            return ident
        if not all(math.isfinite(x / self.tol) for x in vals):
            return self._probe_all(vals)  # raises, naming the value
        scaled = [x / self.cell for x in vals]
        cells = tuple(map(round, scaled))
        if max(map(abs, map(sub, scaled, cells)), default=0.0) >= self.CLEAR:
            ident = self._probe_all(vals)  # some coordinate may split
        elif cells not in self._cells:
            ident = len(self._reps)
            self._reps.append(vals)
            self._cells[cells] = [ident]
        else:
            ident = self._lookup((cells,), cells, vals)
        self._seen[vals] = ident
        return ident

    def _probe_all(self, vals) -> int:
        tol = self.tol
        options = []
        for x in vals:
            if math.isinf(x / tol):
                raise OutOfGrid(f"value {x!r} is out of range at comparison "
                                f"tolerance {tol!r}")
            scaled = x / self.cell
            cell = int(round(scaled))  # a NaN raises ValueError
            off = scaled - cell
            band = self.GUARD + 2 * math.ulp(scaled)
            alt = (cell + 1 if 0.5 - off < band
                   else cell - 1 if 0.5 + off < band else None)
            options.append((cell,) if alt is None else (cell, alt))
        primary = tuple(o[0] for o in options)
        return self._lookup(product(*options), primary, vals)

    def _lookup(self, cells, primary, vals) -> int:
        tol = self.tol
        for cell in cells:
            for ident in self._cells.get(cell, ()):
                rep = self._reps[ident]
                if len(rep) == len(vals) and all(
                    abs(a - b) <= tol for a, b in zip(rep, vals)
                ):
                    return ident
        ident = len(self._reps)
        self._reps.append(vals)
        self._cells.setdefault(primary, []).append(ident)
        return ident


# ---------------------------------------------------------------------------
# a plan's Log-det edges (against ldiv and quotients formed from the entries)


def quotient_entries(g, h) -> tuple[complex, ...]:
    """The entries (a, b, c, d) of g^-1 h, g^-1 taken as g's adjugate, for
    g and h given by their entries (a, b, c, d)."""
    a, b, c, d = g
    return (d * h[0] - b * h[2], d * h[1] - b * h[3],
            a * h[2] - c * h[0], a * h[3] - c * h[1])


def check_edge_layout(table, plan, ids) -> None:
    """Assert that ``plan``, its slots holding ``ids``, groups its pairs by
    Log-det edge: ``plan.firsts`` holds the first pair of each distinct id
    that ``table.ldiv`` gives the pairs, in pair order, ``ldiv`` adding no
    element, and each pair's quotient g^-1 h, formed from the entries, is
    within the table's tolerance (entrywise |.|) of its edge's first
    pair's.  Each row of ``plan.rows``, a coefficient and one edge index
    per pair of a tuple of m entries in ``combinations`` order, holds the
    edges of one tuple: for i, j > 0 its edge (i, j) is e_0i^-1 e_0j of its
    edges (0, i), (0, j), within the tolerance; and the rows meet the
    edges in index order."""
    size, elements, tol = len(table.elements), table.elements, table.tol
    edges = [table.ldiv(ids[a], ids[b]) for a, b in plan.pairs]
    assert len(table.elements) == size
    index = {e: x for x, e in enumerate(dict.fromkeys(edges))}
    assert plan.firsts == [edges.index(e) for e in index]
    entries = [(g.a, g.b, g.c, g.d) for g in elements]
    quotients = [quotient_entries(entries[ids[a]], entries[ids[b]])
                 for a, b in plan.pairs]
    edge = [quotients[k] for k in plan.firsts]
    for q, e in zip(quotients, edges):
        assert max(abs(u - w) for u, w in zip(q, edge[index[e]])) <= tol
    met = []
    for coeff, *xs in plan.rows:
        assert isinstance(coeff, int) and coeff
        m = next(m for m in range(2, 7) if m * (m - 1) // 2 == len(xs))
        at = dict(zip(combinations(range(m), 2), xs))
        for (i, j), x in at.items():
            if i:
                q = quotient_entries(edge[at[0, i]], edge[at[0, j]])
                assert max(abs(u - w) for u, w in zip(q, edge[x])) <= tol
        met += xs
    assert list(dict.fromkeys(met)) == list(range(len(plan.firsts)))


def reference_sums(lam) -> tuple[complex, float]:
    """lhat and vol of every flattened term of ``lam`` through the public
    path, unmerged, each sum correctly rounded by math.fsum as in
    ccs_value."""
    points = [(coeff, to_covering_point(t)) for coeff, t in lam.triples]
    terms = [(coeff * lhat(pt), coeff * vol(pt.z)) for coeff, pt in points]
    return (complex(math.fsum(lh.real for lh, _ in terms),
                    math.fsum(lh.imag for lh, _ in terms)),
            math.fsum(d for _, d in terms))


def object_path_report(cycle, seed, trials: int) -> CcsReport:
    """The report ``ccs_value(cycle, seed, trials)`` must equal, float for
    float: ``trials`` successive ``lambda_hat`` calls on one generator made
    from ``seed`` (each a full repair), each summed through the object path
    (``reference_sums``), its value reduced into [0, 1), and the largest
    deviation taken over every pair of trials."""
    rng = as_rng(seed)
    values, raws, gap = [], [], 0.0
    for _ in range(trials):
        raw, volume = reference_sums(lambda_hat(cycle, rng))
        value = -raw / TWO_PI_SQ
        real = value.real - math.floor(value.real)  # in [0, 1]
        values.append(complex(0.0 if real in (0.0, 1.0) else real, value.imag))
        raws.append(raw)
        gap = max(gap, abs(volume - raw.imag))
    deviation = max((max(min(d, 1.0 - d), abs(a.imag - b.imag))
                     for a, b in combinations(values, 2)
                     for d in [abs(a.real - b.real)]), default=0.0)
    return CcsReport(values[0], raws[0], raws[0].imag, values, deviation,
                     {"volume_vs_im_lhat": gap},
                     int(seed) if isinstance(seed, numbers.Integral) else None)
