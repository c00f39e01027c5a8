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

from .chains import BarChain, SymbolTable
from .core import GroupElement
from .errors import DeterminantError, SchemaError

MAX_COEF = 2**53  # every integer up to this size is exactly a float


def matrix_to_obj(g: GroupElement) -> list:
    return [[x.real, x.imag] for x in g.entries()]


def _numbers(obj, where: str) -> tuple:
    """The eight numbers of a matrix object, shape and types checked."""
    if (not isinstance(obj, list) or len(obj) != 4
            or any(not isinstance(p, list) or len(p) != 2 for p in obj)):
        raise SchemaError(f"{where}: matrix must be four [re, im] pairs")
    nums = (*obj[0], *obj[1], *obj[2], *obj[3])
    bad = [x for x in nums if type(x) not in (int, float)]
    if bad:  # bools and numeric strings too, which float() would take
        raise SchemaError(f"{where}: non-numeric entry {bad[0]!r}")
    return nums


def _element(nums: tuple, where: str) -> GroupElement:
    try:
        vals = [complex(nums[k], nums[k + 1]) for k in (0, 2, 4, 6)]
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{where}: entry out of range")
    if not all(cmath.isfinite(z) for z in vals):
        raise SchemaError(f"{where}: non-finite entry")
    try:
        return GroupElement(*vals)
    except DeterminantError as exc:
        raise DeterminantError(f"{where}: {exc}")


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
    if type(degree) is not int or not 0 <= degree <= 4:
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
            where = f"term {k}, matrix {i}"
            nums = _numbers(m, where)
            if (x := ids.get(nums)) is None:
                x = ids[nums] = table.intern(_element(nums, where))
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


def _fmt(value) -> str:
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
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
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
