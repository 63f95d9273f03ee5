"""The verdicts of ``verify --suite all`` match the ledger in ``tests/data``.

A failing comparison means a verdict changed: a check that passed now
fails, or the reverse, or a quadrature stopped converging.  If the change
is intended, rewrite the ledger with ``python3 tests/verdicts.py`` and
name the changed entries in ``CHANGES.md``.
"""

import json

from verdicts import ALGEBRAS, LEDGER, SEEDS, changed, compute_ledger, dump, verdicts


def test_ledger_matches_the_recomputed_verdicts():
    recorded = json.loads(LEDGER.read_text())
    assert list(recorded) == list(ALGEBRAS)
    assert all(list(runs) == [str(seed) for seed in SEEDS] for runs in recorded.values())
    computed = compute_ledger()
    # names each changed entry, where the dict comparison below would print
    # a truncated diff
    lines = changed(recorded, computed)
    assert lines == [], "verdicts changed:\n" + "\n".join(lines)
    assert computed == recorded


def test_changed_names_each_changed_field():
    entry = {"exit": 0, "failed": [], "unconverged": ["formula/square[one]"]}
    flipped = {"exit": 1, "failed": ["formula/square[zeta]"], "unconverged": []}
    recorded = {"example1": {"1": entry, "2": entry}, "semisimple:m=20": {"1": entry}}
    computed = {"example1": {"1": entry, "2": entry}, "semisimple:m=20": {"1": flipped}}
    assert changed(recorded, recorded) == []
    assert changed(recorded, computed) == [
        "semisimple:m=20 seed 1 exit: 0 -> 1",
        "semisimple:m=20 seed 1 failed: +formula/square[zeta]",
        "semisimple:m=20 seed 1 unconverged: -formula/square[one]",
    ]
    assert changed(recorded, {"example1": {"1": entry}}) == [
        f"{name} seed {seed} {field}: {value} -> None"
        for name, seed in (("example1", "2"), ("semisimple:m=20", "1"))
        for field, value in entry.items()
    ]


def test_ledger_file_is_in_its_canonical_form():
    text = LEDGER.read_text()
    assert dump(json.loads(text)) == text


def test_entry_lists_failing_and_unconverged_checks():
    from monalg.integrals import VerificationReport

    reports = [
        VerificationReport("a", 0.0, 1.0, diagnostics={"converged": True}),
        VerificationReport("b", 2.0, 1.0),
        VerificationReport("c", 0.0, None, diagnostics={"converged": False}),
    ]
    # an unconverged check fails, even an informational one
    assert verdicts(reports) == {"exit": 1, "failed": ["b", "c"], "unconverged": ["c"]}
    assert verdicts(reports[:1] + reports[2:])["exit"] == 1
    assert verdicts(reports[:1])["exit"] == 0
