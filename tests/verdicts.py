"""The verdict ledger: what ``monalg verify --suite all`` decides, per input.

For each algebra and seed of a fixed matrix the ledger records the exit
code, the names of the failing checks and the names of the checks whose
diagnostics say ``converged: false``.  ``tests/test_verdicts.py`` recomputes
it in process and compares it with ``tests/data/verdicts.json``, so a change
of any verdict shows up as a diff of that file.  Rewrite the file with

    python3 tests/verdicts.py

which prints one line per changed entry (see :func:`changed`), and name
every changed entry, with its reason, in ``CHANGES.md``.

The module also builds ``example4 + example1`` (:func:`sum_case`), an
algebra of two blocks that each carry a radical, for the tests on sums and
the digest sweep of ``tests/report_digests.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "data" / "verdicts.json"
CHAIN12 = (ROOT / "perfbench" / "data" / "chain12.json",
           ROOT / "perfbench" / "data" / "chain12_frame.json")

ALGEBRAS = ("example1", "example2", "example3", "example4",
            "semisimple:m=1", "semisimple:m=3", "semisimple:m=8",
            "semisimple:m=12", "semisimple:m=20", "chain12")
SEEDS = range(1, 7)


def _inputs(name: str):
    """Spec, frames and suite options, resolved by ``monalg verify``'s own resolver."""
    from monalg.cli import ExperimentConfig, _inputs

    if name == "chain12":
        config = ExperimentConfig(algebra=str(CHAIN12[0]), frame=str(CHAIN12[1]))
    else:
        config = ExperimentConfig(algebra=name)
    spec, _, frames, options = _inputs(config)
    return spec, frames, options


def sum_spec(*specs):
    """The direct sum of ``specs``, an ``AlgebraSpec``: their idempotents
    first, then each summand's radical, renumbered, with its own idempotents
    as selectors."""
    from monalg.algebra import AlgebraSpec

    m = sum(spec.m for spec in specs)
    products, u_map = {}, {}
    idem, rad = 0, m  # columns placed so far
    for spec in specs:
        def place(i, idem=idem, rad=rad, spec=spec):  # 1-based, summand -> sum
            return idem + i if i <= spec.m else rad + i - spec.m
        products.update({(place(left), place(right), place(target)): value
                         for (left, right, target), value in spec.products.items()})
        u_map.update({place(s): place(u) for s, u in spec.u_map.items()})
        idem, rad = idem + spec.m, rad + spec.n - spec.m
    return AlgebraSpec(rad, m, products, u_map)


def sum_frame(specs, frames):
    """The summands' frames side by side, a ``Frame`` whose columns are
    placed as :func:`sum_spec` places them."""
    from monalg.frames import Frame

    return Frame(np.concatenate([f.a[:, :s.m] for s, f in zip(specs, frames)]
                                + [f.a[:, s.m:] for s, f in zip(specs, frames)], axis=1))


def sum_case():
    """``example4 + example1`` (n=10, m=2) and its frames: blocks that carry
    a radical.  The summands' default frames side by side (``stacked``) give
    both blocks the same spectral values; ``default`` moves the second
    block's ``e_2`` slope from ``i`` to ``1 + i``, which separates them."""
    from monalg.catalog import builtin_algebra, builtin_frames
    from monalg.frames import Frame

    parts = [builtin_algebra("example4"), builtin_algebra("example1")]
    spec = sum_spec(*parts)
    stacked = {name: sum_frame(parts, [builtin_frames(p)[name] for p in parts])
               for name in ("default", "in-s")}
    separated = stacked["default"].a.copy()
    separated[1, 1] += 1.0
    return spec, {"default": Frame(separated), "stacked": stacked["default"],
                  "in-s": stacked["in-s"]}


def verdicts(reports) -> dict:
    """The ledger entry of one run's reports."""
    return {
        "exit": 0 if all(r.passed for r in reports) else 1,
        "failed": [r.name for r in reports if not r.passed],
        "unconverged": [r.name for r in reports
                        if "converged" in r.diagnostics and not r.diagnostics["converged"]],
    }


def compute_ledger(algebras=ALGEBRAS, seeds=SEEDS) -> dict:
    """``{algebra: {seed: entry}}`` over the matrix, computed in process."""
    from monalg.suites import run_suites

    ledger = {}
    for name in algebras:
        spec, frames, options = _inputs(name)
        ledger[name] = {str(seed): verdicts(run_suites(["all"], spec, frames, seed, options))
                        for seed in seeds}
    return ledger


def changed(recorded: dict, computed: dict) -> list:
    """One line per algebra, seed and field whose entry differs, such as
    ``semisimple:m=20 seed 1 failed: +formula/square[zeta]``.

    A list field names the checks it gained (``+``) and lost (``-``); any
    other field, or an entry missing on one side, shows both values.
    """
    lines = []
    for name in dict.fromkeys([*recorded, *computed]):
        old_runs, new_runs = recorded.get(name, {}), computed.get(name, {})
        for seed in dict.fromkeys([*old_runs, *new_runs]):
            old, new = old_runs.get(seed, {}), new_runs.get(seed, {})
            for field in dict.fromkeys([*old, *new]):
                before, after = old.get(field), new.get(field)
                if before == after:
                    continue
                if isinstance(before, list) and isinstance(after, list):
                    diff = ([f"+{check}" for check in after if check not in before]
                            + [f"-{check}" for check in before if check not in after])
                    text = " ".join(diff) or f"reordered {after}"
                else:
                    text = f"{before} -> {after}"
                lines.append(f"{name} seed {seed} {field}: {text}")
    return lines


def dump(ledger: dict) -> str:
    """One line per algebra and seed, so that a changed verdict is a one-line diff."""
    lines = []
    for name, runs in ledger.items():
        rows = [f"    {json.dumps(seed)}: {json.dumps(entry)}" for seed, entry in runs.items()]
        lines.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    recorded = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    computed = compute_ledger()
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(dump(computed))
    for line in changed(recorded, computed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
