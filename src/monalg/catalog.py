"""Built-in algebras and their default frames.

Four five-dimensional algebras with one idempotent and a four-dimensional
radical are shipped under stable names, next to the parametric purely
semisimple family ``semisimple:m=K``.  Every built-in passes validation and
satisfies a structure-constant condition that forces the integral constant
to equal 2 pi i.
"""

from __future__ import annotations

import re

import numpy as np

from .algebra import AlgebraSpec
from .errors import SpecFormatError
from .frames import Frame

__all__ = [
    "builtin_algebra",
    "builtin_frames",
    "builtin_names",
    "builtin_theorem5_condition",
    "list_builtins",
]

_EXAMPLES = {
    "example1": ({(2, 2, 3): 1, (2, 4, 5): 1}, "I2*I2=I3, I2*I4=I5, others zero"),
    "example2": ({(2, 2, 3): 1}, "I2*I2=I3, others zero"),
    "example3": ({(2, 2, 3): 1, (4, 4, 5): 1}, "I2*I2=I3, I4*I4=I5, others zero"),
    "example4": ({(2, 2, 3): 1, (2, 3, 4): 1}, "I2*I2=I3, I2*I3=I4, others zero"),
}

_SEMISIMPLE_RE = re.compile(r"^semisimple:m=(\d+)$")


def builtin_names() -> list:
    return list(_EXAMPLES) + ["semisimple:m=K"]


def list_builtins() -> list:
    """Stable (name, description) pairs for the listing command."""
    out = [
        (name, f"n=5, m=1, {desc}") for name, (_, desc) in _EXAMPLES.items()
    ]
    out.append(
        (
            "semisimple:m=K",
            "purely semisimple algebra with K idempotents and no radical",
        )
    )
    return out


def builtin_algebra(name: str) -> AlgebraSpec:
    """Resolve a built-in algebra name."""
    if name in _EXAMPLES:
        products, _ = _EXAMPLES[name]
        return AlgebraSpec(5, 1, dict(products))
    match = _SEMISIMPLE_RE.match(name)
    if match:
        m = int(match.group(1))
        if m < 1:
            raise SpecFormatError("semisimple family needs m >= 1")
        return AlgebraSpec(m, m)
    raise SpecFormatError(
        f"unknown built-in algebra {name!r}; known: {', '.join(builtin_names())}"
    )


def builtin_theorem5_condition(name: str) -> int | None:
    """The structure-constant condition the built-in ``name`` satisfies.

    ``None`` for a name that is not a built-in: nothing is known about an
    algebra read from a file, whatever the file is called.
    """
    if name in _EXAMPLES:
        return 4
    if _SEMISIMPLE_RE.match(name):
        return 1
    return None


def builtin_frames(spec: AlgebraSpec) -> dict:
    """Default frames for a built-in (or compatible) algebra.

    ``default`` exercises the radical columns; ``in-s`` stays inside the
    semisimple part (for a purely semisimple algebra both coincide).
    """
    n, m = spec.n, spec.m
    if m == n:
        # distinct spectral slopes so the spectral values separate
        rows = [np.array([1j + u for u in range(m)], dtype=np.complex128)]
        if m >= 2:
            rows.append(np.arange(m, dtype=np.complex128))
        frame = Frame.from_rows(spec, *rows)
        return {"default": frame, "in-s": frame}
    if (n, m) != (5, 1):
        raise SpecFormatError(
            "built-in frames are defined for the n=5, m=1 examples and the "
            "semisimple family; supply a frame file for other algebras"
        )
    default = Frame.from_rows(spec, [1j, 1, 0, 1, 0], [0, 0, 1, 0, 1j])
    in_s = Frame.from_rows(spec, [1j, 0, 0, 0, 0])
    return {"default": default, "in-s": in_s}
