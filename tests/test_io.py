"""File-format round trips and malformed-input errors."""

import json
from dataclasses import fields

import numpy as np
import pytest

from monalg.catalog import builtin_algebra, builtin_frames
from monalg.cli import ExperimentConfig
from monalg.curves import Circle2D, Polyline, Triangle
from monalg.errors import SpecFormatError
from monalg.io import (
    load_algebra,
    load_curve,
    load_frame,
    load_function,
    save_algebra,
    save_frame,
)
from monalg.monogenic import Polynomial, PrincipalExtension, ResolventKernel


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return path


def test_algebra_roundtrip(tmp_path):
    spec = builtin_algebra("example1")
    path = tmp_path / "algebra.json"
    save_algebra(spec, path)
    loaded = load_algebra(path)
    assert loaded.n == spec.n and loaded.m == spec.m
    assert loaded.products == spec.products
    assert loaded.u_map == spec.u_map


def test_algebra_file_with_explicit_fields(tmp_path):
    path = write(
        tmp_path,
        "a.json",
        {
            "n": 5,
            "m": 1,
            "u_map": [{"s": s, "u": 1} for s in range(2, 6)],
            "products": [
                {"left": 2, "right": 2, "target": 3, "value_re": 1.0, "value_im": 0.0},
                {"left": 4, "right": 2, "target": 5, "value_re": 1.0, "value_im": 0.0},
            ],
        },
    )
    spec = load_algebra(path)
    assert spec.structure_coefficient(2, 4, 5) == 1.0


def test_algebra_file_conflicting_duplicates(tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {
            "n": 5,
            "m": 1,
            "products": [
                {"left": 2, "right": 4, "target": 5, "value_re": 1.0},
                {"left": 4, "right": 2, "target": 5, "value_re": 2.0},
            ],
        },
    )
    with pytest.raises(SpecFormatError, match="conflicting"):
        load_algebra(path)


def test_algebra_file_malformed_json_reports_line(tmp_path):
    path = write(tmp_path, "broken.json", '{"n": 5,\n  "m": }')
    with pytest.raises(SpecFormatError, match=":2:"):
        load_algebra(path)


def test_algebra_file_bad_index(tmp_path):
    path = write(
        tmp_path,
        "bad_index.json",
        {"n": 5, "m": 1, "products": [{"left": 2, "right": 2, "target": 9, "value_re": 1.0}]},
    )
    with pytest.raises(SpecFormatError, match="out of"):
        load_algebra(path)


@pytest.mark.parametrize("record, field", [
    ({"n": 5.9, "m": 1.2,
      "products": [{"left": 2.7, "right": 2, "target": 3.99, "value_re": 1.0}]}, "n"),
    ({"n": 5, "m": True}, "m"),
    ({"n": 5, "m": 1, "u_map": [{"s": 2.0, "u": 1}]}, "s"),
    ({"n": 5, "m": 1, "u_map": [{"s": 2, "u": "1"}]}, "u"),
    ({"n": 5, "m": 1, "products": [{"left": 2.7, "right": 2, "target": 3, "value_re": 1.0}]},
     "left"),
    ({"n": 5, "m": 1, "products": [{"left": 2, "right": False, "target": 3}]}, "right"),
    ({"n": 5, "m": 1, "products": [{"left": 2, "right": 2, "target": 3.99, "value_re": 1.0}]},
     "target"),
], ids=["n", "m-bool", "u_map-s", "u_map-u", "left", "right-bool", "target"])
def test_algebra_files_refuse_non_integer_indices(tmp_path, record, field):
    # int() would read 5.9 as 5 and True as 1, and load another algebra
    path = write(tmp_path, "indices.json", record)
    with pytest.raises(SpecFormatError, match=f"field '{field}' must be an integer") as exc:
        load_algebra(path)
    assert str(path) in str(exc.value)


def test_frame_files_refuse_a_non_integer_k(tmp_path):
    spec = builtin_algebra("example1")
    path = tmp_path / "frame.json"
    save_frame(builtin_frames(spec)["default"], path)
    record = json.loads(path.read_text())
    path = write(tmp_path, "float_k.json", {**record, "k": float(record["k"])})
    with pytest.raises(SpecFormatError, match="field 'k' must be an integer"):
        load_frame(path, spec)


def test_frame_roundtrip(tmp_path):
    spec = builtin_algebra("example1")
    frame = builtin_frames(spec)["default"]
    path = tmp_path / "frame.json"
    save_frame(frame, path)
    loaded = load_frame(path, spec)
    assert np.array_equal(loaded.a, frame.a)


def test_frame_file_enforces_unit_row(tmp_path):
    spec = builtin_algebra("example1")
    rows = [[[0.0, 0.0]] * 5 for _ in range(2)]
    rows[0][1] = [1.0, 0.0]  # wrong slot for the unit
    rows[1][0] = [0.0, 1.0]
    path = write(tmp_path, "frame.json", {"k": 2, "rows": rows})
    with pytest.raises(SpecFormatError, match="unit"):
        load_frame(path, spec)


def test_frame_file_row_count_mismatch(tmp_path):
    spec = builtin_algebra("example1")
    path = write(tmp_path, "frame.json", {"k": 3, "rows": [[[1, 0]] * 5]})
    with pytest.raises(SpecFormatError, match="rows"):
        load_frame(path, spec)


def test_curve_files(tmp_path):
    circle = load_curve(
        write(
            tmp_path,
            "circle.json",
            {
                "kind": "circle2d",
                "center": [0, 0, 0],
                "radius": 1.5,
                "plane": [[1, 0, 0], [0, 1, 0]],
                "orientation": -1,
            },
        )
    )
    assert isinstance(circle, Circle2D)
    assert circle.radius == 1.5 and circle.orientation == -1
    assert np.array_equal(circle.center, [0, 0, 0])
    assert np.array_equal(circle.plane, [[1, 0, 0], [0, 1, 0]])

    poly = load_curve(
        write(
            tmp_path,
            "poly.json",
            {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]], "closed": True},
        )
    )
    assert isinstance(poly, Polyline) and poly.closed

    tri = load_curve(
        write(
            tmp_path,
            "tri.json",
            {"kind": "triangle", "vertices": [[0, 0], [1, 0], [0, 1]]},
        )
    )
    assert isinstance(tri, Triangle)

    with pytest.raises(SpecFormatError, match="unknown curve kind"):
        load_curve(write(tmp_path, "unknown.json", {"kind": "spiral"}))


@pytest.mark.parametrize(
    "record, cls",
    [
        ({"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]], "closed": True}, Polyline),
        ({"kind": "triangle", "vertices": [[0, 0], [1, 0], [0, 1]]}, Triangle),
    ],
    ids=["polyline", "triangle"],
)
def test_curve_files_keep_orientation(tmp_path, record, cls):
    forward = load_curve(write(tmp_path, "forward.json", record))
    backward = load_curve(write(tmp_path, "backward.json", {**record, "orientation": -1}))
    assert isinstance(backward, cls)
    assert forward.orientation == 1 and backward.orientation == -1
    assert np.array_equal(backward.vertices, forward.vertices)
    # a curve is its geometry and orientation, and nothing else
    assert backward.closed == forward.closed
    assert {f.name for f in fields(backward)} == {"vertices", "closed", "orientation"}


@pytest.mark.parametrize("kind", ["circle2d", "polyline", "triangle"])
def test_curve_files_reject_nodes_per_segment(tmp_path, kind):
    # segment panels have a fixed size, so the key would silently do nothing
    shape = ({"center": [0, 0], "radius": 1.0, "plane": [[1, 0], [0, 1]]} if kind == "circle2d"
             else {"vertices": [[0, 0], [1, 0], [0, 1]]})
    record = {"kind": kind, **shape, "nodes_per_segment": 16}
    with pytest.raises(SpecFormatError, match="nodes_per_segment"):
        load_curve(write(tmp_path, "curve.json", record))


@pytest.mark.parametrize("kind", ["polyline", "triangle"])
@pytest.mark.parametrize("field", ["nodes_on_circle", "refinement_cap"])
def test_segment_curve_files_refuse_circle_node_counts(tmp_path, kind, field):
    # segments never read the circle's node counts, so the key would do nothing
    record = {"kind": kind, "vertices": [[0, 0], [1, 0], [0, 1]], field: 16}
    with pytest.raises(SpecFormatError, match=field):
        load_curve(write(tmp_path, "curve.json", record))


def _assert_circle_file_refuses(tmp_path, field, value):
    record = {"kind": "circle2d", "center": [0, 0], "radius": 1.0, "plane": [[1, 0], [0, 1]],
              field: value}
    path = write(tmp_path, "curve.json", record)
    with pytest.raises(SpecFormatError, match=f"unknown fields \\['{field}'\\]") as exc:
        load_curve(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("field, value", [
    ("nodes_on_circle", 0), ("nodes_on_circle", 2.5), ("nodes_on_circle", True),
    ("refinement_cap", "abc"), ("refinement_cap", 0), ("refinement_cap", -64),
])
def test_curve_files_refuse_node_counts_below_one(tmp_path, field, value):
    # a curve file holds no node count at all (see the next test), so one
    # below 1 is refused by its key, with the file named
    _assert_circle_file_refuses(tmp_path, field, value)


@pytest.mark.parametrize("field, value", [("nodes_on_circle", 128), ("refinement_cap", 4096)])
def test_circle_files_refuse_node_counts(tmp_path, field, value):
    # the node cap is a setting of the run that integrates the curve, so a
    # count in the file would do nothing
    _assert_circle_file_refuses(tmp_path, field, value)


@pytest.mark.parametrize("load", [
    load_algebra,
    lambda path: load_frame(path, builtin_algebra("example2")),
    load_curve,
    lambda path: load_function(path, builtin_algebra("example2")),
], ids=["algebra", "frame", "curve", "function"])
def test_files_must_hold_a_json_object(tmp_path, load):
    path = write(tmp_path, "array.json", [1, 2])
    with pytest.raises(SpecFormatError, match="JSON object") as exc:
        load(path)
    assert str(path) in str(exc.value)


def test_function_files(tmp_path):
    spec = builtin_algebra("example2")
    poly = load_function(
        write(
            tmp_path,
            "poly.json",
            {
                "variant": "polynomial",
                "coeffs": [
                    [[0, 0]] * 5,
                    [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                ],
            },
        ),
        spec,
    )
    assert isinstance(poly, Polynomial) and poly.degree == 1

    kernel = load_function(
        write(tmp_path, "kernel.json", {"variant": "resolvent_kernel", "t": [3, 3]}),
        spec,
    )
    assert isinstance(kernel, ResolventKernel) and kernel.t == 3 + 3j

    pext = load_function(
        write(
            tmp_path,
            "pext.json",
            {
                "variant": "principal_extension",
                "F": [{"kind": "polynomial", "coeffs": [[0, 0], [1, 0]]}],
                "G": [None, None, None, None],
            },
        ),
        spec,
    )
    assert isinstance(pext, PrincipalExtension)

    with pytest.raises(SpecFormatError, match="expected 1 F entries|expected 1"):
        load_function(
            write(
                tmp_path,
                "badpext.json",
                {
                    "variant": "principal_extension",
                    "F": [
                        {"kind": "polynomial", "coeffs": [[1, 0]]},
                        {"kind": "polynomial", "coeffs": [[1, 0]]},
                    ],
                },
            ),
            spec,
        )

    with pytest.raises(SpecFormatError, match="variant"):
        load_function(write(tmp_path, "unknown.json", {"variant": "fourier"}), spec)


def test_principal_extension_files_reject_contours(tmp_path):
    # the value is the Taylor expansion at the spectral values, so a contour
    # in the file could not change it
    spec = builtin_algebra("example2")
    record = {
        "variant": "principal_extension",
        "F": [{"kind": "polynomial", "coeffs": [[0, 0], [1, 0]]}],
        "G": [None, None, None, None],
    }
    assert isinstance(load_function(write(tmp_path, "pext.json", record), spec),
                      PrincipalExtension)
    with_contours = {**record, "contours": [{"center": [0, 0], "radius": 1.0}]}
    with pytest.raises(SpecFormatError, match="contours"):
        load_function(write(tmp_path, "contours.json", with_contours), spec)


_ALGEBRA = {"n": 5, "m": 1}
_FRAME_ROWS = [[[c.real, c.imag] for c in row]
               for row in builtin_frames(builtin_algebra("example1"))["default"].a]
_FRAME = {"k": len(_FRAME_ROWS), "rows": _FRAME_ROWS}
_CIRCLE = {"kind": "circle2d", "center": [0, 0], "radius": 1.0, "plane": [[1, 0], [0, 1]]}
_POLYLINE = {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1]]}
_PEXT = {"variant": "principal_extension",
         "F": [{"kind": "polynomial", "coeffs": [[0, 0], [1, 0]]}]}
_PRODUCT = {"left": 2, "right": 2, "target": 3}


def _bad_frame_coefficient():
    rows = json.loads(json.dumps(_FRAME_ROWS))
    rows[1][0] = True
    return {**_FRAME, "rows": rows}


def _load_frame(path):
    return load_frame(path, builtin_algebra("example1"))


def _load_function(path):
    return load_function(path, builtin_algebra("example2"))


@pytest.mark.parametrize("load, record, field", [
    # a scalar where a list belongs
    (load_algebra, {**_ALGEBRA, "u_map": 5}, "u_map"),
    (load_algebra, {**_ALGEBRA, "products": 5}, "products"),
    (_load_frame, {**_FRAME, "rows": 5}, "rows"),
    (_load_function, {**_PEXT, "F": 5}, "F"),
    (_load_function, {"variant": "polynomial", "coeffs": 5}, "coeffs"),
    # booleans and strings are not numbers, and strings are not booleans
    (load_algebra, {**_ALGEBRA, "products": [{**_PRODUCT, "value_re": True}]}, "value_re"),
    (load_algebra, {**_ALGEBRA, "products": [{**_PRODUCT, "value_re": "1.5"}]}, "value_re"),
    (_load_frame, _bad_frame_coefficient(), "rows"),
    (load_curve, {**_POLYLINE, "closed": "false"}, "closed"),
    (load_curve, {**_CIRCLE, "orientation": 1.7}, "orientation"),
    (load_curve, {**_CIRCLE, "orientation": True}, "orientation"),
    (load_curve, {**_CIRCLE, "radius": "2"}, "radius"),
    (load_curve, {**_CIRCLE, "radius": True}, "radius"),
    (_load_function, {"variant": "resolvent_kernel", "t": True}, "t"),
    # a string is not a list of coefficients
    (_load_function, {**_PEXT, "F": [{"kind": "polynomial", "coeffs": "12"}]}, "coeffs"),
], ids=["u_map", "products", "rows", "F", "poly-coeffs", "value_re-bool", "value_re-string",
        "frame-coefficient-bool", "closed-string", "orientation-float", "orientation-bool",
        "radius-string", "radius-bool", "t-bool", "scalar-coeffs-string"])
def test_mistyped_fields_are_refused_by_name(tmp_path, load, record, field):
    path = write(tmp_path, "probe.json", record)
    with pytest.raises(SpecFormatError) as exc:
        load(path)
    assert str(path) in str(exc.value) and repr(field) in str(exc.value)


@pytest.mark.parametrize("load, record", [
    (load_algebra, {**_ALGEBRA, "u_map": None,
                    "products": [{**_PRODUCT, "value_re": 2, "value_im": -0.5}]}),
    (_load_frame, _FRAME),
    (load_curve, {**_CIRCLE, "radius": 2, "orientation": -1}),
    (load_curve, {**_POLYLINE, "closed": True}),
    (_load_function, {"variant": "resolvent_kernel", "t": 3}),
    (_load_function, {**_PEXT, "G": [None, {"kind": "rational", "coeffs": [1],
                                            "denom": [[-5, 0], 1.0]}, None, None]}),
], ids=["algebra", "frame", "circle", "polyline", "kernel", "principal"])
def test_well_typed_fields_still_load(tmp_path, load, record):
    # integers where numbers are asked for, and null where it is allowed
    load(write(tmp_path, "good.json", record))


@pytest.mark.parametrize("load, record, key", [
    (load_algebra, {**_ALGEBRA, "product": []}, "product"),
    (load_algebra, {**_ALGEBRA, "u_map": [{"s": 2, "u": 1, "idempotent": 1}]}, "idempotent"),
    (load_algebra, {**_ALGEBRA, "products": [{**_PRODUCT, "value_img": 2.0}]}, "value_img"),
    (_load_frame, {**_FRAME, "row": []}, "row"),
    (load_curve, {**_CIRCLE, "orientaton": -1}, "orientaton"),
    (load_curve, {**_CIRCLE, "closed": True}, "closed"),
    (load_curve, {**_POLYLINE, "radius": 1.0}, "radius"),
    (load_curve, {"kind": "triangle", "vertices": [[0, 0], [1, 0], [0, 1]], "closed": False},
     "closed"),
    (_load_function, {"variant": "polynomial", "coeffs": [[1, 0, 0, 0, 0]], "t": 3}, "t"),
    (_load_function, {"variant": "resolvent_kernel", "t": 3, "coeffs": []}, "coeffs"),
    (_load_function, {**_PEXT, "F": [{"kind": "rational", "coeffs": [1], "denominator": [1]}]},
     "denominator"),
    (ExperimentConfig.from_file, {"algebra": "example1", "seeds": [1, 2]}, "seeds"),
], ids=["algebra", "u_map-entry", "product", "frame", "circle", "circle-closed", "polyline",
        "triangle-closed", "polynomial", "kernel", "scalar", "config"])
def test_unknown_keys_are_refused_by_name(tmp_path, load, record, key):
    # a misspelt optional field would otherwise load its default without a word
    path = write(tmp_path, "probe.json", record)
    with pytest.raises(SpecFormatError, match="unknown fields") as exc:
        load(path)
    assert str(path) in str(exc.value) and repr(key) in str(exc.value)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("load, record, field", [
    (load_curve, {**_CIRCLE, "center": [_NAN, 0]}, "center"),
    (load_curve, {**_CIRCLE, "radius": _INF}, "radius"),
    (load_curve, {**_POLYLINE, "vertices": [[0, 0], [-_INF, 0], [1, 1]]}, "vertices"),
    (_load_function, {"variant": "resolvent_kernel", "t": _NAN}, "t"),
    (_load_function, {"variant": "resolvent_kernel", "t": [0, _INF]}, "t"),
    (load_algebra, {**_ALGEBRA, "products": [{**_PRODUCT, "value_re": _INF}]}, "value_re"),
    (ExperimentConfig.from_file, {"algebra": "example1", "tol": _INF}, "tol"),
    (ExperimentConfig.from_file, {"algebra": "example1", "tol": _NAN}, "tol"),
    (ExperimentConfig.from_file, {"algebra": "example1", "tol": 0}, "tol"),
    (ExperimentConfig.from_file, {"algebra": "example1", "tol": -1e-8}, "tol"),
], ids=["center-nan", "radius-inf", "vertices-inf", "t-nan", "t-pair-inf", "value_re-inf",
        "tol-inf", "tol-nan", "tol-zero", "tol-negative"])
def test_non_finite_numbers_and_non_positive_tolerances_are_refused(tmp_path, load, record,
                                                                     field):
    # Python's json reads NaN and Infinity; no loader may take them as numbers
    path = write(tmp_path, "probe.json", record)
    with pytest.raises(SpecFormatError, match="finite") as exc:
        load(path)
    assert str(path) in str(exc.value) and repr(field) in str(exc.value)


def test_reports_are_strict_json_when_a_cap_starves_them():
    # a circle stopped before its second level has no measured delta: its
    # infinite quadrature_error is written as null, not as Infinity
    from monalg.io import reports_to_json
    from monalg.suites import run_suites

    spec = builtin_algebra("example1")
    reports = run_suites(["cauchy"], spec, builtin_frames(spec), options={"nodes_cap": 1})
    starved = [r for r in reports if r.diagnostics.get("quadrature_error") == float("inf")]
    assert starved

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(reports_to_json(reports), parse_constant=refuse)
    errors = {c["name"]: c["diagnostics"].get("quadrature_error") for c in payload["checks"]}
    assert all(errors[r.name] is None for r in starved)


def test_reports_refuse_a_value_they_would_write_as_its_repr():
    # a plain object's repr holds its address, so writing it would change
    # the report's bytes from run to run without a word
    from monalg.integrals import VerificationReport
    from monalg.io import reports_to_json

    class Opaque:
        pass

    report = VerificationReport("x", 0.0, 1.0, diagnostics={"what": Opaque()})
    with pytest.raises(TypeError, match="Opaque"):
        reports_to_json([report])
