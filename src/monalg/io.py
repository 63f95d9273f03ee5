"""File formats: algebra, frame, curve, and function specs plus reports.

All files are JSON.  Complex scalars are stored as explicit re/im fields or
two-element arrays so the files stay diffable; loaders reject malformed
content with position information where available.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .algebra import AlgebraSpec, Element
from .curves import Circle2D, Polyline, QuadratureOptions, Triangle
from .errors import MonalgError, SpecFormatError
from .frames import Frame, validate_frame
from .integrals import VerificationReport
from .monogenic import (
    HolomorphicScalarSpec,
    Polynomial,
    PrincipalExtension,
    ResolventKernel,
)

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


def _index(record, key, where) -> int:
    """``record[key]``, which must be a JSON integer: not a float, a bool or missing."""
    value = record.get(key) if isinstance(record, dict) else None
    if not _is_int(value):
        raise SpecFormatError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def _as_complex(obj, where):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise SpecFormatError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


# -- algebra files ------------------------------------------------------------


def load_algebra(path) -> AlgebraSpec:
    """Read {n, m, u_map: [{s, u}], products: [{left, right, target, ...}]}."""
    data = _read_json(path)
    n, m = _index(data, "n", path), _index(data, "m", path)
    u_map = None
    if "u_map" in data and data["u_map"] is not None:
        u_map = {}
        for entry in data["u_map"]:
            where = f"{path}: u_map entry {entry!r}"
            u_map[_index(entry, "s", where)] = _index(entry, "u", where)
    products = []
    for entry in data.get("products", []):
        key = tuple(_index(entry, field, f"{path}: product entry {entry!r}")
                    for field in ("left", "right", "target"))
        try:
            value = complex(float(entry.get("value_re", 0.0)), float(entry.get("value_im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(
                f"{path}: product value_re/value_im must be numbers: {entry!r}"
            ) from exc
        products.append((key, value))
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
    k = _index(data, "k", path)
    try:
        rows = data["rows"]
    except KeyError as exc:
        raise SpecFormatError(f"{path}: need field 'rows'") from exc
    if len(rows) != k:
        raise SpecFormatError(f"{path}: expected {k} rows, found {len(rows)}")
    a = np.zeros((k, spec.n), dtype=np.complex128)
    for j, row in enumerate(rows):
        if len(row) != spec.n:
            raise SpecFormatError(
                f"{path}: row {j + 1} has {len(row)} coefficients, expected {spec.n}"
            )
        for r, pair in enumerate(row):
            a[j, r] = _as_complex(pair, f"{path}: row {j + 1}, coefficient {r + 1}")
    frame = Frame(a)
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


def load_curve(path):
    """Read a tagged curve record: circle2d, polyline, or triangle."""
    data = _read_json(path)
    kind = data.get("kind")
    if "nodes_per_segment" in data:
        raise SpecFormatError(f"{path}: nodes_per_segment is no longer read; "
                              "segment panels have a fixed 15 nodes")
    if kind not in ("circle2d", "polyline", "triangle"):
        raise SpecFormatError(f"{path}: unknown curve kind {kind!r}")
    try:
        common = {"orientation": int(data.get("orientation", 1)),
                  "quadrature": QuadratureOptions(nodes_on_circle=data.get("nodes_on_circle", 64),
                                                  cap=data.get("refinement_cap", 2**16))}
        if kind == "circle2d":
            return Circle2D(np.asarray(data["center"], dtype=float), float(data["radius"]),
                            np.asarray(data["plane"], dtype=float), **common)
        vertices = np.asarray(data["vertices"], dtype=float)
        if kind == "polyline":
            return Polyline(vertices, closed=bool(data.get("closed", False)), **common)
        return Triangle(vertices, **common)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"{path}: malformed {kind} record: {exc}") from exc


# -- function files ----------------------------------------------------------------


def _load_scalar(data, where) -> HolomorphicScalarSpec:
    try:
        kind = data["kind"]
        coeffs = tuple(_as_complex(c, where) for c in data["coeffs"])
        denom = data.get("denom")
        if denom is not None:
            denom = tuple(_as_complex(c, where) for c in denom)
        return HolomorphicScalarSpec(kind, coeffs, denom=denom)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"{where}: malformed scalar spec: {exc}") from exc


def load_function(path, spec: AlgebraSpec):
    """Read a tagged function record for one of the three variants."""
    data = _read_json(path)
    variant = data.get("variant")
    if variant == "polynomial":
        coeffs = []
        for i, row in enumerate(data.get("coeffs", [])):
            if len(row) != spec.n:
                raise SpecFormatError(
                    f"{path}: coefficient {i} has {len(row)} coordinates, expected {spec.n}"
                )
            coeffs.append(
                Element([_as_complex(c, f"{path}: coefficient {i}") for c in row])
            )
        if not coeffs:
            raise SpecFormatError(f"{path}: polynomial needs at least one coefficient")
        return Polynomial(tuple(coeffs))
    if variant == "resolvent_kernel":
        return ResolventKernel(_as_complex(data.get("t"), f"{path}: field 't'"))
    if variant == "principal_extension":
        unknown = sorted(set(data) - {"variant", "F", "G"})
        if unknown:
            # the value is the Taylor expansion at the spectral values: a key
            # such as a contour could not change it, so it is refused, not ignored
            raise SpecFormatError(f"{path}: principal_extension records hold only F "
                                  f"and G; unknown fields {unknown}")
        f_specs = tuple(
            None if entry is None else _load_scalar(entry, f"{path}: F[{i}]")
            for i, entry in enumerate(data.get("F", []))
        )
        g_specs = tuple(
            None if entry is None else _load_scalar(entry, f"{path}: G[{i}]")
            for i, entry in enumerate(data.get("G", []))
        )
        if len(f_specs) != spec.m:
            raise SpecFormatError(f"{path}: expected {spec.m} F entries, got {len(f_specs)}")
        if g_specs and len(g_specs) != spec.n - spec.m:
            raise SpecFormatError(
                f"{path}: expected {spec.n - spec.m} G entries, got {len(g_specs)}"
            )
        return PrincipalExtension(F=f_specs, G=g_specs)
    raise SpecFormatError(f"{path}: unknown function variant {variant!r}")


# -- reports -------------------------------------------------------------------------


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Element):
        return [[c.real, c.imag] for c in value.coords]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def report_record(report: VerificationReport) -> dict:
    return {
        "name": report.name,
        "passed": report.passed,
        "residual": report.residual,
        "tolerance": report.tolerance,
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
