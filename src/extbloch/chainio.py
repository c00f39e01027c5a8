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
from typing import IO

from .chains import BarChain
from .core import GroupElement
from .errors import DeterminantError, SchemaError

MAX_COEF = 2**53  # every integer up to this size is exactly a float


def matrix_to_obj(g: GroupElement) -> list:
    return [[x.real, x.imag] for x in g.entries()]


def matrix_from_obj(obj, where: str) -> GroupElement:
    if (not isinstance(obj, list) or len(obj) != 4
            or any(not isinstance(p, list) or len(p) != 2 for p in obj)):
        raise SchemaError(f"{where}: matrix must be four [re, im] pairs")
    bad = [x for p in obj for x in p if type(x) not in (int, float)]
    if bad:  # bools and numeric strings too, which float() would take
        raise SchemaError(f"{where}: non-numeric entry {bad[0]!r}")
    try:
        vals = [complex(*p) for p in obj]
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


def chain_from_obj(obj) -> BarChain:
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
    terms = []
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
        sym = tuple(matrix_from_obj(m, f"term {k}, matrix {i}")
                    for i, m in enumerate(bar))
        terms.append((coeff, sym))
    return BarChain(degree, terms)


def parse_cycle_file(path: str) -> BarChain:
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
    return chain_from_obj(obj)


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


def write_json(obj, out: IO[str] | None, path: str | None):
    text = dumps_canonical(obj)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif out is not None:
        out.write(text)


def emit_report(report, path: str | None = None, out: IO[str] | None = None,
                extra: dict | None = None):
    """Serialize a CcsReport (duck-typed: needs .as_dict) deterministically."""
    doc = report.as_dict()
    if extra:
        doc.update(extra)
    write_json(doc, out, path)
