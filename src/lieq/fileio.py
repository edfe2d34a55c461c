"""Algebra file format and report serialization.

Algebras are stored as JSON with rationals as exact "p/q" strings, never
floats.  Omitted bracket pairs mean a zero bracket.  Reports serialize with
sorted keys, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import json

from .liealg import MAX_COUNT_DIGITS, InvalidStructureError, LieAlgebra, check_dim_cap, clip
from .linalg import is_rational_string, q_parse, q_str


class AlgebraFileError(ValueError):
    """Raised on a malformed algebra file."""


def serialize_algebra(g: LieAlgebra) -> str:
    brackets = [
        {"i": i, "j": j, "value": [[k, q_str(c)] for k, c in g.sc[i][j].items()]}
        for i in range(g.dim)
        for j in sorted(g.sc[i])
        if i < j
    ]
    doc = {"dim": g.dim, "labels": list(g.labels), "brackets": brackets}
    return dumps_report(doc)


def parse_algebra(text: str | bytes) -> LieAlgebra:
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as e:
        raise AlgebraFileError(f"not valid UTF-8: {e}") from None
    except json.JSONDecodeError as e:
        raise AlgebraFileError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise AlgebraFileError("not valid JSON: nested too deeply") from None
    except ValueError:  # int() refused a JSON integer past its digit limit
        raise AlgebraFileError("an integer has too many digits") from None
    if not isinstance(doc, dict):
        raise AlgebraFileError("top level must be an object")
    try:
        dim = doc["dim"]
        labels = doc.get("labels")
        brackets = doc.get("brackets", [])
    except KeyError as e:
        raise AlgebraFileError(f"missing field {e}") from None
    # `type(x) is int`, not isinstance: JSON true/false load as bool, an int subclass
    if type(dim) is not int or dim < 0:
        raise AlgebraFileError("dim must be a non-negative integer")
    check_dim_cap(dim)
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != dim
        or not all(isinstance(s, str) for s in labels)
    ):
        raise AlgebraFileError("labels must list one name (a string) per basis vector")
    if not isinstance(brackets, list):
        raise AlgebraFileError("brackets must be a list of bracket records")
    table = {}
    for rec in brackets:
        try:
            i, j = rec["i"], rec["j"]
            value = rec["value"]
        except (KeyError, TypeError) as e:
            raise AlgebraFileError(f"malformed bracket record: {e}") from None
        if not (type(i) is int and type(j) is int and 0 <= i < j < dim):
            raise AlgebraFileError(
                f"bracket indices ({clip(str(i))}, {clip(str(j))}) out of range or not i < j"
            )
        if not isinstance(value, list):
            raise AlgebraFileError(
                f"bracket value of ({i}, {j}) must be a list of [index, 'p/q'] pairs"
            )
        coords = {}
        for entry in value:
            try:
                k, s = entry
            except (TypeError, ValueError):
                s = None
            if not isinstance(s, str):
                raise AlgebraFileError("bracket value entries must be [index, 'p/q'] pairs")
            if not (type(k) is int and 0 <= k < dim):
                raise AlgebraFileError(f"bracket value index {clip(str(k))} out of range")
            if k in coords:
                raise AlgebraFileError(f"duplicate index {k} in bracket value of ({i}, {j})")
            if not is_rational_string(s):
                raise AlgebraFileError(f"bad rational string {clip(s)!r}")
            # past MAX_COUNT_DIGITS, int() would refuse p or q, quoting every digit
            digits = max(map(len, s.lstrip("+-").split("/")))
            if digits > MAX_COUNT_DIGITS:
                raise AlgebraFileError(
                    f"a rational string has {digits} digits in p or q, over {MAX_COUNT_DIGITS}"
                )
            coords[k] = q_parse(s)
        if (i, j) in table:
            raise AlgebraFileError(f"duplicate bracket record for ({i}, {j})")
        table[(i, j)] = coords
    try:
        return LieAlgebra(dim, table, labels, check=True)
    except InvalidStructureError as e:
        raise AlgebraFileError(str(e)) from None


def check_to_dict(check) -> dict:
    return {"name": check.name, "pass": check.passed, "detail": check.detail}


def report_to_dict(report) -> dict:
    return {
        "name": report.name,
        "ok": report.ok,
        "checks": [check_to_dict(c) for c in report.checks],
        "dims": dict(report.dims),
        "notes": list(report.notes),
    }


def dumps_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
