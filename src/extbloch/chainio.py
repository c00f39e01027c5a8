"""JSON file formats for chains and evaluation reports.

Chains travel as

    {"group": "SL2C", "degree": 3,
     "terms": [{"coef": 1, "bar": [m1, m2, m3]}, ...]}

where each matrix is four [re, im] pairs in row-major order (a, b, c, d).
Reports and chains are emitted through a deterministic writer (fixed key
order, floats with 17 significant digits) so identical inputs give
byte-identical files that parse back bit-exactly.
"""

from __future__ import annotations

import cmath
import json
from io import TextIOBase

from .chains import MAX_DEGREE, BarChain, SymbolTable
from .core import GroupElement, check_det
from .errors import DeterminantError, SchemaError

MAX_COEF = 2**53  # every integer up to this size is exactly a float


def matrix_to_obj(g: GroupElement) -> list:
    return [[x.real, x.imag] for x in g.entries()]


def _numbers(obj, k: int, i: int) -> tuple:
    """The eight numbers of matrix ``i`` of term ``k``, shape and entry
    types checked; the error, naming the place, is worded only on failure."""
    if isinstance(obj, list) and len(obj) == 4:
        p, q, r, s = obj
        if (isinstance(p, list) and len(p) == 2
                and isinstance(q, list) and len(q) == 2
                and isinstance(r, list) and len(r) == 2
                and isinstance(s, list) and len(s) == 2):
            nums = (*p, *q, *r, *s)
            for x in nums:
                # bools and numeric strings too, which float() would take
                if type(x) is not float and type(x) is not int:
                    raise SchemaError(f"term {k}, matrix {i}: "
                                      f"non-numeric entry {x!r}")
            return nums
    raise SchemaError(f"term {k}, matrix {i}: matrix must be four "
                      "[re, im] pairs")


def _element(nums: tuple, k: int, i: int) -> GroupElement:
    """The element of ``nums``, matrix ``i`` of term ``k``: its range,
    finiteness and det validated, and the element built, once."""
    try:
        a, b, c, d = (complex(nums[0], nums[1]), complex(nums[2], nums[3]),
                      complex(nums[4], nums[5]), complex(nums[6], nums[7]))
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"term {k}, matrix {i}: entry out of range")
    isfinite = cmath.isfinite
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        raise SchemaError(f"term {k}, matrix {i}: non-finite entry")
    try:
        check_det(a, b, c, d)
    except DeterminantError as exc:
        raise DeterminantError(f"term {k}, matrix {i}: {exc}")
    return GroupElement._unchecked(a, b, c, d)


def chain_to_obj(c: BarChain) -> dict:
    return {
        "group": "SL2C",
        "degree": c.degree,
        "terms": [{"coef": coeff, "bar": [matrix_to_obj(g) for g in sym]}
                  for coeff, sym in c],
    }


def chain_from_obj(obj, tol: float | None = None) -> BarChain:
    """The chain a parsed chain file describes, its terms keyed on a
    ``SymbolTable`` at the comparison tolerance ``tol``: terms whose
    symbols agree at ``tol`` merge as they are read.  Each distinct matrix
    (by its eight numbers, after the shape and type checks of each
    occurrence) is validated and keyed once; the table holds the surviving
    terms' symbols only, in first-occurrence order, as ``ccs_value`` would."""
    if not isinstance(obj, dict):
        raise SchemaError("top level must be an object")
    if obj.get("group") != "SL2C":
        raise SchemaError(f"unsupported group {obj.get('group')!r}")
    degree = obj.get("degree")
    if type(degree) is not int or not 0 <= degree <= MAX_DEGREE:
        raise SchemaError(f"bad degree {degree!r}")
    terms_obj = obj.get("terms")
    if not isinstance(terms_obj, list):
        raise SchemaError("terms must be a list")
    table = SymbolTable(tol)
    terms, ids = [], {}  # ids: a matrix's eight numbers -> its id
    for k, t in enumerate(terms_obj):
        if not isinstance(t, dict) or "coef" not in t or "bar" not in t:
            raise SchemaError(f"term {k}: need 'coef' and 'bar'")
        coeff = t["coef"]
        if type(coeff) is not int:
            raise SchemaError(f"term {k}: coefficient must be an integer")
        if abs(coeff) > MAX_COEF:  # the trial sums take it as a float
            raise SchemaError(f"term {k}: coefficient out of range")
        bar = t["bar"]
        if not isinstance(bar, list) or len(bar) != degree:
            raise SchemaError(f"term {k}: bar symbol must list {degree} matrices")
        sym = []
        for i, m in enumerate(bar):
            nums = _numbers(m, k, i)
            if (x := ids.get(nums)) is None:
                x = ids[nums] = table.intern(_element(nums, k, i))
            sym.append(x)
        terms.append((coeff, tuple(sym)))
    chain = BarChain._on(table, degree, terms)
    if len(chain) < len({key for _, key in terms}):  # a term cancelled
        chain = chain.interned(SymbolTable(tol))  # drop its symbols
    return chain


def parse_cycle_file(path: str, tol: float | None = None) -> BarChain:
    """``chain_from_obj`` of the JSON file at ``path``, keyed at ``tol``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at "
                              f"byte {exc.start})")
        except (ValueError, RecursionError) as exc:
            # malformed JSON, an integer past int()'s digit limit, or
            # nesting deeper than the decoder recurses
            raise SchemaError(f"{path}: invalid JSON ({exc})")
    return chain_from_obj(obj, tol)


# ---------------------------------------------------------------------------
# deterministic writer


# what ``_fmt`` writes a value as: its exact type, or else the first of
# these it is an instance of (bool before int)
_KINDS = (bool, int, float, str, type(None), list, tuple, dict)
_PAIR = "[%.17g, %.17g]"
_MATRIX = ", ".join([_PAIR] * 4).join("[]")
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str


def _fmt(value) -> str:
    """The canonical JSON text of ``value``, dispatched on its exact type.
    A float takes 17 significant digits, ``null`` when not finite (the
    only formatted floats with an "n": inf and nan).  A [re, im] pair of
    plain floats, and a four-pair matrix of them in lists, is written
    with one format; with a value not a plain float or not finite, it
    takes the general path, element by element."""
    kind = type(value)
    if kind not in _KINDS:  # a subclass writes as its base
        kind = next((t for t in _KINDS if isinstance(value, t)), None)
    if kind is float:
        out = "%.17g" % value
        return out if "n" not in out else "null"
    if kind is list or kind is tuple:
        if len(value) == 2:
            re, im = value
            if type(re) is float and type(im) is float:
                out = _PAIR % (re, im)
                if "n" not in out:
                    return out
        elif len(value) == 4:
            p, q, r, s = value
            if (type(p) is list and len(p) == 2 and type(q) is list
                    and len(q) == 2 and type(r) is list and len(r) == 2
                    and type(s) is list and len(s) == 2):
                nums = (*p, *q, *r, *s)
                if all([type(x) is float for x in nums]):
                    out = _MATRIX % nums
                    if "n" not in out:
                        return out
        return "[" + ", ".join(map(_fmt, value)) + "]"
    if kind is dict:
        return "{" + ", ".join([f"{_quote(str(k))}: {_fmt(v)}"
                                for k, v in value.items()]) + "}"
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion key order, 17-significant-digit
    decimal floats (lossless round trip)."""
    return _fmt(obj) + "\n"


def write_json(obj, out: TextIOBase | None, path: str | None):
    text = dumps_canonical(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif out is not None:
        out.write(text)


def _write_chain(c: BarChain, out: TextIOBase | None, path: str | None):
    """``write_json(chain_to_obj(c), out, path)`` a term at a time: the
    same bytes, with neither the object tree nor the whole text held."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            _write_chain(c, fh, None)
    elif out is not None:
        out.write(f'{{"group": "SL2C", "degree": {c.degree}, "terms": [')
        sep = ""
        for coeff, sym in c:
            out.write(sep + _fmt({"coef": coeff,
                                  "bar": [matrix_to_obj(g) for g in sym]}))
            sep = ", "
        out.write("]}\n")


def emit_report(report, path: str | None = None, out: TextIOBase | None = None,
                extra: dict | None = None):
    """Serialize a CcsReport (duck-typed: needs .as_dict) deterministically."""
    doc = report.as_dict()
    if extra:
        doc.update(extra)
    write_json(doc, out, path)
