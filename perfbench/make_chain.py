"""Generate or check the deep-radical algebra and frame files.

The algebra is a chain radical with n = 12, m = 1 and ``I_a I_b = I_{a+b-1}``
for radical indices ``a, b >= 2`` with ``a + b - 1 <= 12``: 30 products,
nilpotency index 12.  The frame is ``e_1 = 1``, ``e_2 = i I_1 + I_2``,
``e_3 = I_3 + i I_12``.

    python3 perfbench/make_chain.py           # (re)write the two files
    python3 perfbench/make_chain.py --check   # exit 1 unless they are valid
                                              # and follow the rule above

Both need ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from monalg.algebra import AlgebraSpec, validate_algebra
from monalg.errors import MonalgError
from monalg.frames import Frame, validate_frame
from monalg.io import load_algebra, load_frame, save_algebra, save_frame

N = 12
DATA = Path(__file__).resolve().parent / "data"
ALGEBRA_FILE = DATA / "chain12.json"
FRAME_FILE = DATA / "chain12_frame.json"


def chain_algebra() -> AlgebraSpec:
    products = {(a, b, a + b - 1): 1.0
                for a in range(2, N + 1) for b in range(a, N + 1) if a + b - 1 <= N}
    return AlgebraSpec(N, 1, products)


def chain_frame(spec: AlgebraSpec) -> Frame:
    e2 = np.zeros(N, dtype=np.complex128)
    e2[0], e2[1] = 1j, 1.0
    e3 = np.zeros(N, dtype=np.complex128)
    e3[2], e3[N - 1] = 1.0, 1j
    return Frame.from_rows(spec, e2, e3)


def check() -> list:
    """Problems with the stored files; empty when they are usable."""
    problems = []
    spec = load_algebra(ALGEBRA_FILE)
    report = validate_algebra(spec)
    if not report.ok:
        problems.append(f"{ALGEBRA_FILE.name}: validate_algebra failed: {report}")
    expected = chain_algebra()
    if (spec.n, spec.m, spec.products) != (expected.n, expected.m, expected.products):
        problems.append(f"{ALGEBRA_FILE.name}: does not follow the chain rule")
    try:
        frame = load_frame(FRAME_FILE, spec)
        validate_frame(frame, spec)
    except MonalgError as exc:
        problems.append(f"{FRAME_FILE.name}: validate_frame failed: {exc}")
    else:
        if not np.array_equal(frame.a, chain_frame(expected).a):
            problems.append(f"{FRAME_FILE.name}: does not follow the frame rule")
    return problems


def main(argv) -> int:
    if argv == ["--check"]:
        problems = check()
        for line in problems:
            sys.stderr.write(f"deep-radical inputs: {line}\n")
        return 1 if problems else 0
    if argv:
        sys.stderr.write("usage: make_chain.py [--check]\n")
        return 2
    spec = chain_algebra()
    DATA.mkdir(exist_ok=True)
    save_algebra(spec, ALGEBRA_FILE)
    save_frame(chain_frame(spec), FRAME_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
