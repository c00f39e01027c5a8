"""Fundamental classes of the spherical space forms S^3/G, G a binary
polyhedral group, as bar 3-cycles over SL(2, C): ground truth past cyclic
torsion.

A finite G in SU(2) acts freely on S^3, and the Chern-Simons invariant of
S^3/G with its canonical flat connection is -1/|G| mod 1, so the reported
value, twice it, is -2/|G| mod 1.  For the binary icosahedral group, the
Galois conjugate representation (sqrt 5 -> -sqrt 5) has Chern-Simons
invariant -49/120 (Fintushel-Stern, Proc. LMS 61 (1990)).

G is taken as unit quaternions, a + bi + cj + dk -> (a + bi, c + di;
-c + di, a - bi).  The boundary of the convex hull P of G in R^4 is a cell
structure on S^3 (projected radially) that G permutes freely by left
multiplication, and its barycentric subdivision gives the class:

- the facets of P through 1 are the vertex sets of its supporting
  hyperplanes through 1 and three of the 16 vertices nearest to it (ties
  at the 16th included); the 2-faces through 1 are the intersections of
  two of them with at least three vertices, and the edges through 1 those
  of two 2-faces with two;
- f takes a face X to the vertex v of X whose translate v^-1 X has the
  least sorted vertex indices, so f(g X) = g f(X), chosen once per orbit;
- a flag V < E < F < C goes to sign * (f(V), f(E), f(F), f(C)), the sign
  that of the det of the barycentres of V, E, F and C (G acts by
  rotations, so the sign is constant on orbits); G is simply transitive
  on vertices, so the flags with V = 1 are one per orbit;
- the coinvariant homogeneous sum of those tuples, in bar form.

Standard library only; run by ``tests/test_spherical.py``, and in CI to
write the binary icosahedral chain file.
"""

import math
from itertools import combinations

from extbloch.chains import BarChain, HomChain, hom_to_inhom
from extbloch.core import GroupElement

PHI = (1.0 + math.sqrt(5.0)) / 2.0
NEAREST = 16  # candidate vertices for the facet hyperplanes through 1
EPS = 1e-9  # on a hyperplane, or at a coordinate value

Quat = tuple[float, float, float, float]


def qmul(p: Quat, q: Quat) -> Quat:
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _key(q: Quat) -> tuple[float, ...]:
    """Coordinates rounded to 9 decimals: equal for one element formed in
    different orders."""
    return tuple(round(x, 9) for x in q)


def closure(gens: list[Quat]) -> list[Quat]:
    """The group the unit quaternions ``gens`` generate, 1 first."""
    group, seen = [(1.0, 0.0, 0.0, 0.0)], {_key((1.0, 0.0, 0.0, 0.0))}
    for p in group:  # grows while it is walked
        for g in gens:
            q = qmul(p, g)
            if _key(q) not in seen:
                seen.add(_key(q))
                group.append(q)
        if len(group) > 1000:
            raise ValueError("the generators do not give a finite group")
    return group


def binary_dihedral(m: int) -> list[Quat]:
    """Order 4m; m = 2 is the quaternion group Q8."""
    t = math.pi / m
    return closure([(math.cos(t), math.sin(t), 0.0, 0.0),
                    (0.0, 0.0, 1.0, 0.0)])


_T = [(0.0, 1.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5)]
GROUPS = {
    "Q8": lambda: closure([(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]),
    **{f"D{m}": (lambda m=m: binary_dihedral(m)) for m in range(2, 7)},
    "T": lambda: closure(_T),
    "O": lambda: closure(_T + [(math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0)]),
    "I": lambda: closure(_T + [(PHI / 2, 0.5, 0.5 / PHI, 0.0)]),
}


def galois(q: Quat) -> Quat:
    """sqrt 5 -> -sqrt 5 on the coordinates of an element of the binary
    icosahedral group, each 0, +-1/2, +-1, +-phi/2 or +-1/(2 phi): phi/2
    goes to -1/(2 phi) and 1/(2 phi) to -phi/2."""
    out = []
    for x in q:
        for u, v in ((PHI / 2, -0.5 / PHI), (0.5 / PHI, -PHI / 2)):
            if abs(abs(x) - u) <= EPS:
                x = v if x > 0 else -v
                break
        out.append(x)
    return tuple(out)


def _det3(r: list[list[float]]) -> float:
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def _cofactors(rows: list[list[float]]) -> list[float]:
    """The vector n with n . x = det(rows + [x]) for every x in R^4."""
    return [(-1) ** (k + 1) * _det3([r[:k] + r[k + 1:] for r in rows])
            for k in range(4)]


def _det4(rows: list[list[float]]) -> float:
    return sum(n * x for n, x in zip(_cofactors(rows[:3]), rows[3]))


def _facets_at_one(group: list[Quat]) -> set[frozenset[int]]:
    """Vertex index sets of the facets of conv(group) that hold 1: the
    hyperplanes through 1 and three vertices at most as far from it as
    the ``NEAREST``-th nearest (ties included) that have every vertex on
    the origin's side, the near ones tested first."""
    one = group[0]
    rest = sorted(group[1:], key=lambda q: math.dist(q, one))
    reach = math.dist(one, rest[min(NEAREST, len(rest)) - 1]) + EPS
    near = [q for q in rest if math.dist(one, q) <= reach]
    facets = set()
    for trio in combinations(near, 3):
        n = _cofactors([[x - y for x, y in zip(q, one)] for q in trio])
        size = math.copysign(math.hypot(*n), n[0])  # n . 1 = n[0] > 0
        if abs(n[0]) <= EPS * abs(size):
            continue  # degenerate, or a plane through the origin
        n = [x / size for x in n]
        c = n[0]
        if all(sum(a * x for a, x in zip(n, q)) <= c + EPS for q in rest):
            facets.add(frozenset(
                i for i, q in enumerate(group)
                if abs(sum(a * x for a, x in zip(n, q)) - c) <= EPS))
    return facets


def flag_terms(group: list[Quat]) -> list[tuple[int, tuple[Quat, ...]]]:
    """(sign, (f(V), f(E), f(F), f(C))) for every flag with V = 1 of the
    boundary of conv(group), ``group[0]`` being 1."""
    where = {_key(q): i for i, q in enumerate(group)}
    inverse = [(q[0], -q[1], -q[2], -q[3]) for q in group]

    def f(face: frozenset[int]) -> int:
        return min(face, key=lambda v: sorted(
            where[_key(qmul(inverse[v], group[x]))] for x in face))

    def barycentre(face: frozenset[int]) -> list[float]:
        return [sum(group[i][k] for i in face) / len(face) for k in range(4)]

    facets = _facets_at_one(group)
    faces2 = {a & b for a, b in combinations(facets, 2) if len(a & b) >= 3}
    edges = {a & b for a, b in combinations(faces2, 2) if len(a & b) == 2}
    vertex = frozenset([0])
    terms = []
    for e in sorted(edges, key=sorted):
        for t in sorted((t for t in faces2 if e < t), key=sorted):
            for c in sorted((c for c in facets if t < c), key=sorted):
                flag = (vertex, e, t, c)
                det = _det4([barycentre(x) for x in flag])
                terms.append((1 if det > 0 else -1,
                              tuple(group[f(x)] for x in flag)))
    return terms


def matrix(q: Quat) -> GroupElement:
    a, b, c, d = q
    return GroupElement(complex(a, b), complex(c, d), complex(-c, d),
                        complex(a, -b))


def cycle(name: str, conjugate: bool = False) -> BarChain:
    """The fundamental class of S^3/G for G = ``GROUPS[name]``, with every
    entry Galois conjugated (``galois``) when ``conjugate``."""
    put = (lambda q: matrix(galois(q))) if conjugate else matrix
    terms = [(s, tuple(map(put, t))) for s, t in flag_terms(GROUPS[name]())]
    return hom_to_inhom(HomChain(3, terms, coinvariant=True))
