"""The verdicts of ``verify --suite all`` match the ledger in ``tests/data``.

A failing comparison means a verdict changed: a check that passed now
fails, or the reverse, or a quadrature stopped converging.  If the change
is intended, rewrite the ledger with ``python3 tests/verdicts.py`` and
name the changed entries in ``CHANGES.md``.
"""

import json

from verdicts import ALGEBRAS, LEDGER, SEEDS, compute_ledger, dump, verdicts


def test_ledger_matches_the_recomputed_verdicts():
    recorded = json.loads(LEDGER.read_text())
    assert list(recorded) == list(ALGEBRAS)
    assert all(list(runs) == [str(seed) for seed in SEEDS] for runs in recorded.values())
    assert compute_ledger() == recorded


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
    assert verdicts(reports) == {"exit": 1, "failed": ["b"], "unconverged": ["c"]}
    assert verdicts(reports[:1] + reports[2:])["exit"] == 0
