"""Command-line front end.

Subcommands: ``validate`` an algebra file, ``verify`` named suites,
``lambda`` for the integral constant across several circles, ``predicates``
for the structure-constant and frame conditions, and ``list`` for the
built-ins.  ``_SETTINGS`` says which settings each subcommand reads: they
are its flags, the keys its JSON config file may hold, and what its
report's ``config`` block records.  Flags override file fields.  Exit
status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .algebra import validate_algebra
from .catalog import (
    builtin_algebra,
    builtin_frames,
    builtin_theorem5_condition,
    list_builtins,
)
from .curves import Circle2D, coordinate_plane
from .errors import MonalgError, SpecFormatError
from .integrals import VerificationReport, _integral_report, compute_lambda
from .io import (
    _check,
    _field,
    _known,
    _read_json,
    load_algebra,
    load_frame,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
)
from .predicates import theorem5_predicate, theorem6_predicate, theorem7_predicate
from .quadrature import DEFAULT_CAP, _is_count
from .suites import SUITES, _lambda_circle, run_suites

__all__ = ["ExperimentConfig", "main", "run_experiment"]


def _positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if not _is_count(value):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


_RUN = ("algebra", "frame", "tol", "out", "nodes_cap")
# The settings (fields of ExperimentConfig) each subcommand reads.
_SETTINGS = {
    "validate": ("algebra", "tol"),
    "verify": (*_RUN, "suites", "seed", "triangles", "points"),
    "lambda": _RUN,
    "predicates": _RUN,
}


def _setting(kind, help_text, default=None, **flag):
    """A field of :class:`ExperimentConfig`: a config file gives it as JSON
    ``kind`` (``io._KINDS``), and its flag takes the argparse keywords ``flag``."""
    return field(default=default, metadata={"kind": kind, "flag": {"help": help_text, **flag}})


@dataclass
class ExperimentConfig:
    """One archivable experiment: inputs, checks, tolerances, outputs.

    Each field is a setting; a flag given on the command line replaces it.
    A value not of its setting's kind raises :class:`SpecFormatError`, whether
    it comes from a flag, a config file or the caller.
    """

    algebra: str = _setting("string", "built-in name or algebra JSON file", "")
    frame: str | None = _setting("string?", "'default', 'in-s', or a frame JSON file")
    suites: list = field(default_factory=lambda: ["all"], metadata={
        "kind": ("list", "string"), "flag": {
            "metavar": "SUITE", "action": "extend", "type": lambda chunk: chunk.split(","),
            "help": f"suites to run (comma-separated); known: {', '.join(SUITES)}, all"}})
    tol: float | None = _setting("tol?", "tolerance override, finite and > 0", type=float)
    seed: int = _setting("seed", "seed for sampled checks, an integer >= 0", 0, type=int)
    out: str | None = _setting("string?", "output prefix for .json/.txt/.csv reports")
    nodes_cap: int = _setting("count", "node cap of every quadrature refinement, on circles "
                              "and on polyline segments", DEFAULT_CAP, type=_positive_int)
    triangles: int | None = _setting("count?", "triangle count for the Morera suite",
                                     type=_positive_int)
    points: int | None = _setting("count?", "sample count for the oracle suite",
                                  type=_positive_int)

    def __post_init__(self):
        for f in fields(self):
            _check(getattr(self, f.name), f.metadata["kind"], f"config field {f.name!r}")

    @classmethod
    def from_file(cls, path, command: str = "verify") -> "ExperimentConfig":
        """The config file at ``path``; a key that ``command`` does not read is refused."""
        data = _read_json(path)
        kinds = {f.name: f.metadata["kind"] for f in fields(cls) if f.name in _SETTINGS[command]}
        _known(data, kinds, path)
        return cls(**{key: _field(data, key, kinds[key], path) for key in data})

    def merge_flags(self, args) -> "ExperimentConfig":
        """Each flag given replaces its field, checked as a config file's value is."""
        for f in fields(self):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(self, f.name, _check(value, f.metadata["kind"], f"--{f.name}"))
        return self


def _is_algebra_file(name: str) -> bool:
    path = Path(name)
    return path.suffix == ".json" or path.exists()


def _resolve_algebra(name: str):
    """A built-in name or a JSON file path; returns (spec, display_name)."""
    if not name:
        raise SpecFormatError("no algebra given; use --algebra NAME_OR_FILE")
    if _is_algebra_file(name):
        return load_algebra(name), str(Path(name))
    return builtin_algebra(name), name


def _resolve_frames(spec, frame_ref, algebra_name) -> dict:
    if frame_ref is None:
        try:
            return builtin_frames(spec)
        except SpecFormatError as exc:
            raise SpecFormatError(
                f"{algebra_name} has no built-in frames; pass --frame FILE ({exc})"
            ) from exc
    if frame_ref in ("default", "in-s"):
        # suites address the primary frame by the "default" key
        return {"default": builtin_frames(spec)[frame_ref]}
    return {"default": load_frame(frame_ref, spec)}


def _suite_options(config: ExperimentConfig, algebra_name) -> dict:
    options = {key: getattr(config, key) for key in ("nodes_cap", "tol", "triangles", "points")
               if getattr(config, key) is not None}
    expected = None if _is_algebra_file(algebra_name) else builtin_theorem5_condition(algebra_name)
    if expected is not None:
        options["expected_theorem5_condition"] = expected
    return options


def _inputs(config: ExperimentConfig):
    """``(spec, algebra name, frames, suite options)`` of ``config``, as ``verify`` reads them."""
    spec, name = _resolve_algebra(config.algebra)
    return spec, name, _resolve_frames(spec, config.frame, name), _suite_options(config, name)


def _emit(reports, config: ExperimentConfig, command: str, name: str, frames) -> int:
    """Print the table; with ``out``, write the reports, recording ``command``'s settings."""
    text = reports_to_text(reports)
    sys.stdout.write(text)
    if config.out:
        prefix = Path(config.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        settings = {key: getattr(config, key) for key in _SETTINGS[command]
                    if key not in ("algebra", "frame", "out")}
        payload = reports_to_json(reports, config={"algebra": name, "frames": sorted(frames),
                                                   **settings})
        Path(str(prefix) + ".json").write_text(payload)
        Path(str(prefix) + ".txt").write_text(text)
        reports_to_csv(reports, str(prefix) + ".csv")
    return 0 if all(r.passed for r in reports) else 1


# -- subcommands ----------------------------------------------------------------


def _cmd_list(args) -> int:
    for name, description in list_builtins():
        sys.stdout.write(f"{name:<16} {description}\n")
    return 0


def _cmd_validate(args) -> int:
    config = _config_from(args)
    spec, name = _resolve_algebra(config.algebra)
    tol = config.tol if config.tol is not None else 1e-12
    report = validate_algebra(spec, tolerance=tol)
    rows = [
        ("rule1_ok", report.rule1_ok),
        ("rule2_support_ok", report.rule2_support_ok),
        ("rule3_ok", report.rule3_ok),
        ("unit_ok", report.unit_ok),
        ("assoc_A1_max_residual", f"{report.assoc_A1_max_residual:.3e}"),
        ("assoc_A2_max_residual", f"{report.assoc_A2_max_residual:.3e}"),
        ("nilpotency_index", report.nilpotency_index),
        ("ok", report.ok),
    ]
    for key, value in rows:
        sys.stdout.write(f"{key:<24} {value}\n")
    for warning in report.warnings:
        sys.stdout.write(f"warning: {warning}\n")
    return 0 if report.ok else 1


def _write_timings(rows) -> None:
    """One stderr row per suite run: wall seconds and ``compute_lambda`` calls."""
    sys.stderr.write(f"{'suite':<12} {'wall_s':>9} {'lambdas':>8}\n")
    for name, seconds, calls in rows:
        sys.stderr.write(f"{name:<12} {seconds:>9.4f} {calls:>8d}\n")


def run_experiment(config: ExperimentConfig, timings: bool = False) -> int:
    """Resolve the config, run its suites, emit reports; 0 iff all passed.

    With ``timings``, a per-suite table goes to stderr; the reports and the
    ``--out`` files do not change.
    """
    spec, name, frames, options = _inputs(config)
    rows = [] if timings else None
    reports = run_suites(config.suites, spec, frames, seed=config.seed, options=options,
                         timings=rows)
    if rows is not None:
        _write_timings(rows)
    return _emit(reports, config, "verify", name, frames)


def _cmd_verify(args) -> int:
    return run_experiment(_config_from(args), timings=args.timings)


def _lambda_circles(frame, spec):
    """The circles ``monalg lambda`` integrates over, as ``(label, circle,
    margin)`` triples.

    All embrace the origin.  The r=0.5 and r=2.0 circles are off centre:
    ``zeta^{-1} dzeta`` does not change under ``x -> c x``, so centred
    circles whose radii differ by a power of two would give the same bits
    and the variation between them would measure nothing.  In plane (1,2)
    each spectral value is a real-linear map of ``(x_1, x_2)``, so a circle
    there winds around the origin as the centred one does.  A ``k = 3``
    frame with a plane of positive margin adds the lambda suite's circle in
    that plane, the one circle with a ``margin`` (``None`` for the others);
    where that plane is plane (1,2), the centred unit circle there is the
    suite's, and takes the margin in place of a second record.
    """
    k = frame.k
    plane = coordinate_plane(k, 1, 2)

    def centre(x1, x2):
        point = np.zeros(k)
        point[:2] = x1, x2
        return point

    widest, margin = _lambda_circle(frame, spec)
    same = np.array_equal(widest.plane, plane)
    circles = [
        ("plane(1,2) r=0.5", Circle2D(centre(0.2, -0.1), 0.5, plane), None),
        ("plane(1,2) r=1.0", Circle2D(np.zeros(k), 1.0, plane), margin if same else None),
        ("plane(1,2) r=2.0", Circle2D(centre(-0.7, 0.4), 2.0, plane), None),
    ]
    if k >= 3:
        tilt = np.zeros((2, k))
        tilt[0, 0] = 1.0
        tilt[1, 1], tilt[1, 2] = np.cos(0.4), np.sin(0.4)
        circles.append(("tilted plane r=1.0", Circle2D(np.zeros(k), 1.0, tilt), None))
    if margin is not None and not same:
        circles.append(("widest plane r=1.0", widest, margin))
    return circles


def _cmd_lambda(args) -> int:
    config = _config_from(args)
    spec, name, frames, _ = _inputs(config)
    tol = config.tol if config.tol is not None else 1e-8
    reports = []
    # frame -> (label, LambdaResult, margin) triples; a frame may have two names
    integrated = {}
    for fname, frame in frames.items():
        if frame not in integrated:
            integrated[frame] = [(label, compute_lambda(spec, frame, circle, cap=config.nodes_cap),
                                  margin)
                                 for label, circle, margin in _lambda_circles(frame, spec)]
        for label, lam, margin in integrated[frame]:
            reports.append(_integral_report(f"lambda[{fname}][{label}]", lam,
                                            lam.deviation_from_two_pi_i, tol,
                                            windings=lam.windings,
                                            nilpotent_residuals=lam.nilpotent_residuals,
                                            margin=margin))
        first = integrated[frame][0][1].value.coords
        spread = max(float(np.max(np.abs(lam.value.coords - first)))
                     for _, lam, _ in integrated[frame])
        reports.append(
            VerificationReport(
                f"lambda[{fname}][plane-radius-variation]",
                spread,
                None,
                diagnostics={"circles": len(integrated[frame])},
            )
        )
    return _emit(reports, config, "lambda", name, frames)


def _cmd_predicates(args) -> int:
    config = _config_from(args)
    spec, name, frames, options = _inputs(config)
    th5 = theorem5_predicate(spec)
    sys.stdout.write(
        f"structure-constant conditions: holds={th5.holds} "
        f"condition={th5.condition} reason={th5.reason}\n"
    )
    if th5.products:
        sys.stdout.write(
            "  product magnitudes: "
            + ", ".join(f"{v:.2e}" for v in th5.products)
            + "\n"
        )
    for warning in th5.warnings:
        sys.stdout.write(f"  warning: {warning}\n")
    for fname, frame in frames.items():
        th6 = theorem6_predicate(frame, spec)
        line = f"frame {fname}: semisimple-span={th6}"
        if spec.dim_nilpotent == 4:
            line += f" sparsity-condition={theorem7_predicate(frame, spec)}"
        sys.stdout.write(line + "\n")
    reports = run_suites(["predicates"], spec, frames, options=options)
    return _emit(reports, config, "predicates", name, frames)


def _config_from(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config, args.command) if args.config else None
    return (config or ExperimentConfig()).merge_flags(args)


def _add_settings(parser, names) -> None:
    """``--config`` and one flag per setting in ``names``."""
    parser.add_argument("--config", help="experiment config JSON file; it may hold these settings")
    for f in fields(ExperimentConfig):
        if f.name in names:
            flag = "--suite" if f.name == "suites" else "--" + f.name.replace("_", "-")
            parser.add_argument(flag, dest=f.name, **f.metadata["flag"])


_COMMANDS = {
    "validate": (_cmd_validate, "check the algebra axioms"),
    "verify": (_cmd_verify, "run verification suites"),
    "lambda": (_cmd_lambda, "compute the integral constant"),
    "predicates": (_cmd_predicates, "evaluate the 2-pi-i conditions"),
    "list": (_cmd_list, "list built-in algebras"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monalg",
        description="Verification harness for monogenic-function integral "
                    "theorems in commutative algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        if command in _SETTINGS:
            _add_settings(subparser, _SETTINGS[command])
    sub.choices["verify"].add_argument("--timings", action="store_true",
                                       help="print each suite's wall seconds and "
                                            "compute_lambda calls to stderr")
    return parser


def main(argv=None) -> int:
    # At exit the interpreter runs full collections over every tracked
    # object, numpy's included, that the process is about to drop anyway;
    # frozen objects are skipped.  From the return of ``main`` to the reaped
    # process, ``verify --suite all`` on example1 takes 14.7 ms with the
    # collections and 4.8 ms without (medians of 15, 2-vCPU AMD EPYC, Python
    # 3.11.7, numpy 2.4.6).  The freeze runs at exit, so in-process callers
    # keep their collector until then; unregistering first keeps one hook.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (SpecFormatError, MonalgError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
