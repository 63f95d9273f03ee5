"""File formats: algebra, frame, curve, and function specs plus reports.

All files are JSON.  Complex scalars are stored as explicit re/im fields or
two-element arrays so the files stay diffable.  The loaders read every field
through ``_field``, which checks it against one table of JSON kinds and
names the file and the field of any value it refuses, and refuse through
``_known`` every key a record may not hold.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .algebra import AlgebraSpec, Element
from .curves import Circle2D, Polyline, Triangle
from .errors import MonalgError, SpecFormatError
from .frames import Frame, validate_frame
from .integrals import VerificationReport
from .monogenic import (
    HolomorphicScalarSpec,
    Polynomial,
    PrincipalExtension,
    ResolventKernel,
)
from .quadrature import _is_count

__all__ = [
    "load_algebra",
    "load_curve",
    "load_frame",
    "load_function",
    "reports_to_csv",
    "reports_to_json",
    "reports_to_text",
    "save_algebra",
    "save_frame",
]


def _read_json(path) -> dict:
    """The JSON object in the file at ``path``; every file format is one."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _is_int(value) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: an ``int``, not a ``bool``, or a ``float`` that is
    neither NaN nor infinite (Python's ``json`` reads ``NaN`` and ``Infinity``)."""
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


# Every JSON kind an input field may have: (accepts the value, what it must be).
# Strings and booleans are never numbers, a float is never an integer, and no
# number is NaN or infinite.
_KINDS = {
    "integer": (_is_int, "an integer"),
    "count": (_is_count, "an integer of at least 1"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer of at least 0"),
    "number": (_is_number, "a finite number"),
    "tol": (lambda v: _is_number(v) and v > 0, "a finite number greater than 0"),
    "complex": (lambda v: _is_number(v) or isinstance(v, list) and len(v) == 2
                and all(map(_is_number, v)), "a finite number or an [re, im] pair of them"),
    "orientation": (lambda v: _is_int(v) and v in (1, -1), "1 or -1"),
    "boolean": (lambda v: isinstance(v, bool), "a boolean"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
}

_REQUIRED = object()


def _check(value, kind, what):
    """``value`` if it is of ``kind``, a key of ``_KINDS`` (``?`` appended allows
    null) or a tuple ``(list kind, entry kind...)`` whose entries ``what[i]``
    are checked in turn; a "complex" comes back as a complex."""
    if isinstance(kind, tuple):
        entries = _check(value, kind[0], what)
        entry = kind[1] if len(kind) == 2 else kind[1:]
        return None if entries is None else [_check(v, entry, f"{what}[{i}]")
                                             for i, v in enumerate(entries)]
    nullable = kind.endswith("?")
    accepts, expected = _KINDS[kind.rstrip("?")]
    if value is None and nullable:
        return None
    if not accepts(value):
        raise SpecFormatError(f"{what} must be {expected}{' or null' if nullable else ''}, "
                              f"got {value!r}")
    if kind == "complex":
        return complex(*value) if isinstance(value, list) else complex(value)
    return value


def _field(record, key, kind, where, default=_REQUIRED):
    """``record[key]`` checked as ``kind`` (see ``_check``), or ``default``."""
    if key not in record:
        if default is _REQUIRED:
            raise SpecFormatError(f"{where}: need field {key!r}")
        return default
    return _check(record[key], kind, f"{where}: field {key!r}")


def _known(record, keys, where):
    """Refuse the keys of ``record`` outside ``keys``: a misspelt optional
    field would otherwise load its default without a word."""
    unknown = sorted(set(record) - set(keys))
    if unknown:
        raise SpecFormatError(f"{where}: unknown fields {unknown}; known: {sorted(keys)}")


# -- algebra files ------------------------------------------------------------


def load_algebra(path) -> AlgebraSpec:
    """Read {n, m, u_map: [{s, u}], products: [{left, right, target, ...}]}."""
    data = _read_json(path)
    _known(data, ("n", "m", "u_map", "products"), path)
    n, m = _field(data, "n", "integer", path), _field(data, "m", "integer", path)
    entries = _field(data, "u_map", ("list?", "object"), path, None)
    u_map = None if entries is None else {}
    for i, entry in enumerate(entries or []):
        where = f"{path}: u_map[{i}]"
        _known(entry, ("s", "u"), where)
        u_map[_field(entry, "s", "integer", where)] = _field(entry, "u", "integer", where)
    products = []
    for i, entry in enumerate(_field(data, "products", ("list", "object"), path, [])):
        where = f"{path}: products[{i}]"
        _known(entry, ("left", "right", "target", "value_re", "value_im"), where)
        key = tuple(_field(entry, name, "integer", where) for name in ("left", "right", "target"))
        products.append((key, complex(_field(entry, "value_re", "number", where, 0.0),
                                      _field(entry, "value_im", "number", where, 0.0))))
    try:
        return AlgebraSpec(n, m, products, u_map=u_map)
    except MonalgError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def save_algebra(spec: AlgebraSpec, path) -> None:
    data = {
        "n": spec.n,
        "m": spec.m,
        "u_map": [{"s": s, "u": u} for s, u in sorted(spec.u_map.items())],
        "products": [
            {
                "left": left,
                "right": right,
                "target": target,
                "value_re": value.real,
                "value_im": value.imag,
            }
            for (left, right, target), value in sorted(spec.products.items())
        ],
    }
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- frame files ---------------------------------------------------------------


def load_frame(path, spec: AlgebraSpec) -> Frame:
    """Read {k, rows: [[[re, im] x n] x k]} and validate against the spec."""
    data = _read_json(path)
    _known(data, ("k", "rows"), path)
    k = _field(data, "k", "integer", path)
    rows = _field(data, "rows", ("list", "list", "complex"), path)
    if len(rows) != k:
        raise SpecFormatError(f"{path}: expected {k} rows, found {len(rows)}")
    for j, row in enumerate(rows):
        if len(row) != spec.n:
            raise SpecFormatError(f"{path}: row {j + 1} has {len(row)} coefficients, "
                                  f"expected {spec.n}")
    frame = Frame(np.array(rows, dtype=np.complex128).reshape(k, spec.n))
    try:
        validate_frame(frame, spec)
    except MonalgError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc
    return frame


def save_frame(frame: Frame, path) -> None:
    rows = [[[c.real, c.imag] for c in row] for row in frame.a]
    Path(path).write_text(
        json.dumps({"k": frame.k, "rows": rows}, indent=2, sort_keys=True) + "\n"
    )


# -- curve files -----------------------------------------------------------------


# The keys of each curve kind beside its kind and orientation.  A curve holds no
# node counts: the node cap is the run's.
_CURVE_KEYS = {"circle2d": ("center", "radius", "plane"), "polyline": ("vertices", "closed"),
               "triangle": ("vertices",)}


def load_curve(path):
    """Read a tagged curve record: circle2d, polyline, or triangle."""
    data = _read_json(path)
    kind = _field(data, "kind", "string", path)
    if kind not in _CURVE_KEYS:
        raise SpecFormatError(f"{path}: unknown curve kind {kind!r}")
    _known(data, ("kind", "orientation", *_CURVE_KEYS[kind]), path)
    orientation = _field(data, "orientation", "orientation", path, 1)
    try:
        if kind == "circle2d":
            return Circle2D(_field(data, "center", ("list", "number"), path),
                            _field(data, "radius", "number", path),
                            _field(data, "plane", ("list", "list", "number"), path),
                            orientation=orientation)
        vertices = _field(data, "vertices", ("list", "list", "number"), path)
        if kind == "polyline":
            return Polyline(vertices, closed=_field(data, "closed", "boolean", path, False),
                            orientation=orientation)
        return Triangle(vertices, orientation=orientation)
    except ValueError as exc:  # a shape or geometry the curve refuses
        raise SpecFormatError(f"{path}: malformed {kind} record: {exc}") from exc


# -- function files ----------------------------------------------------------------


def _load_scalar(data, where) -> HolomorphicScalarSpec:
    _known(data, ("kind", "coeffs", "denom"), where)
    try:
        return HolomorphicScalarSpec(_field(data, "kind", "string", where),
                                     _field(data, "coeffs", ("list", "complex"), where),
                                     denom=_field(data, "denom", ("list?", "complex"), where,
                                                  None))
    except ValueError as exc:
        raise SpecFormatError(f"{where}: malformed scalar spec: {exc}") from exc


# The keys of each function variant beside its variant.
_FUNCTION_KEYS = {"polynomial": ("coeffs",), "resolvent_kernel": ("t",),
                  "principal_extension": ("F", "G")}


def load_function(path, spec: AlgebraSpec):
    """Read a tagged function record for one of the three variants."""
    data = _read_json(path)
    variant = _field(data, "variant", "string", path)
    if variant not in _FUNCTION_KEYS:
        raise SpecFormatError(f"{path}: unknown function variant {variant!r}")
    _known(data, ("variant", *_FUNCTION_KEYS[variant]), path)
    if variant == "polynomial":
        coeffs = _field(data, "coeffs", ("list", "list", "complex"), path, [])
        for i, row in enumerate(coeffs):
            if len(row) != spec.n:
                raise SpecFormatError(f"{path}: coefficient {i} has {len(row)} coordinates, "
                                      f"expected {spec.n}")
        if not coeffs:
            raise SpecFormatError(f"{path}: polynomial needs at least one coefficient")
        return Polynomial(tuple(Element(row) for row in coeffs))
    if variant == "resolvent_kernel":
        return ResolventKernel(_field(data, "t", "complex", path))
    # a principal_extension
    f_specs, g_specs = (
        tuple(None if entry is None else _load_scalar(entry, f"{path}: {key}[{i}]")
              for i, entry in enumerate(_field(data, key, ("list", "object?"), path, [])))
        for key in ("F", "G"))
    if len(f_specs) != spec.m:
        raise SpecFormatError(f"{path}: expected {spec.m} F entries, got {len(f_specs)}")
    if g_specs and len(g_specs) != spec.n - spec.m:
        raise SpecFormatError(f"{path}: expected {spec.n - spec.m} G entries, "
                              f"got {len(g_specs)}")
    return PrincipalExtension(F=f_specs, G=g_specs)


# -- reports -------------------------------------------------------------------------


def _jsonable(value):
    """``value`` as JSON data.  A NaN or infinite float, which JSON (RFC 8259)
    cannot hold, becomes ``None``.  Another type raises ``TypeError``: its
    ``repr`` may hold an address, and change a report's bytes run to run."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, Element):
        return _jsonable(value.coords)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError(f"a report cannot hold a {type(value).__name__}")


def report_record(report: VerificationReport) -> dict:
    return {
        "name": report.name,
        "passed": report.passed,
        "residual": _jsonable(report.residual),
        "tolerance": _jsonable(report.tolerance),
        "value": _jsonable(report.value),
        "reference": _jsonable(report.reference),
        "diagnostics": _jsonable(report.diagnostics),
    }


def reports_to_json(reports, config: dict | None = None) -> str:
    """Deterministic structured report: same inputs give identical bytes."""
    payload = {
        "config": _jsonable(config or {}),
        "checks": [report_record(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def reports_to_text(reports) -> str:
    lines = []
    width = max((len(r.name) for r in reports), default=10)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        tol = "unconditional" if r.tolerance is None else f"tol={r.tolerance:.3g}"
        lines.append(f"{status}  {r.name:<{width}}  residual={r.residual:.3e}  {tol}")
    passed = sum(r.passed for r in reports)
    lines.append(f"{passed}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"


def reports_to_csv(reports, path) -> None:
    """Refinement series (nodes vs successive change) for convergence plots."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["check", "nodes", "delta"])
        for r in reports:
            for nodes, delta in r.diagnostics.get("history", []):
                writer.writerow([r.name, nodes, repr(float(delta))])
