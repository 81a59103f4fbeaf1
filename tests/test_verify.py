"""The battery's and split-check's decompositions and iso tests run at the
budgets' seed and confidence, not at decompose's and is_isomorphic's defaults."""

import json
import sys

from quivalg import decomp, morita, repmod, verify
from quivalg.budgets import Budgets

BUDGETS = Budgets(seed=3, confidence=7)


def _spy(monkeypatch, name):
    """(calling module, seed, confidence) of every call to decomp.<name>."""
    calls = []
    orig = getattr(decomp, name)

    def spy(*args, seed=0, confidence=40, **kwargs):
        calls.append((sys._getframe(1).f_globals["__name__"], seed, confidence))
        return orig(*args, seed=seed, confidence=confidence, **kwargs)

    monkeypatch.setattr(decomp, name, spy)
    return calls


def _from(calls, module):
    return {(seed, confidence) for caller, seed, confidence in calls if caller == module}


def test_criterion_9_decomposes_at_the_budgets_seed_and_confidence(monkeypatch):
    monkeypatch.setattr(verify, "run_battery", lambda budgets: [])
    calls = _spy(monkeypatch, "decompose")
    crit = verify.criterion_9(verify.Fixtures(), BUDGETS, json.dumps([], sort_keys=True))
    assert "100 Krull-Schmidt pairs, failures 0" in crit["details"]
    assert _from(calls, "quivalg.verify") == {(3, 7)}


def test_battery_iso_tests_run_at_the_budgets_seed_and_confidence(monkeypatch):
    calls = _spy(monkeypatch, "is_isomorphic")
    fx = verify.Fixtures()
    for criterion in (verify.criterion_2, verify.criterion_3, verify.criterion_4,
                      verify.criterion_8):
        criterion(fx, BUDGETS)
    assert _from(calls, "quivalg.verify") == {(3, 7)}


def test_split_check_runs_at_the_budgets_seed_and_confidence(exC, monkeypatch):
    alg = exC.algebra
    isos = _spy(monkeypatch, "is_isomorphic")
    # the top clause of a one-sided module
    assert morita.verify_syzygy_split(exC, repmod.simple(alg, "0"), BUDGETS).top_clause == "match"
    assert _from(isos, "quivalg.morita") == {(3, 7)}
    # the failure detail decomposes the syzygy
    decomps = _spy(monkeypatch, "decompose")
    monkeypatch.setattr(morita, "one_sided_parts", lambda c, m: None)
    report = morita.verify_syzygy_split(exC, repmod.simple(alg, "0"), BUDGETS)
    assert not report.ok and "mixed-support classes" in report.detail
    assert _from(decomps, "quivalg.morita") == {(3, 7)}
