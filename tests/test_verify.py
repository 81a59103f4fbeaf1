"""The battery's and split-check's decompositions, registrations and iso
tests run at the budgets' seed and confidence, not at decompose's, register's
and is_isomorphic's defaults, and every call in the package hands them over
inside its Budgets."""

import ast
import inspect
import json
import pathlib
import sys

import numpy as np

from quivalg import analysis, cli, decomp, homology, morita, repmod, verify
from quivalg.budgets import DEFAULT, Budgets

BUDGETS = Budgets(seed=3, confidence=7)


def _spy(monkeypatch, name):
    """(calling module, seed, confidence) of every call to decomp.<name>, read
    off the Budgets it is handed."""
    calls = []
    orig = getattr(decomp, name)
    signature = inspect.signature(orig)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        budgets = bound.arguments["budgets"]
        calls.append((sys._getframe(1).f_globals["__name__"], budgets.seed, budgets.confidence))
        return orig(*args, **kwargs)

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


def test_registrations_and_their_scans_run_at_the_budgets_seed_and_confidence(monkeypatch):
    registers = []
    register = decomp.IsoRegistry.register

    def spy(self, m, budgets=DEFAULT):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
            caller = caller.f_back
        registers.append((f"{caller.f_globals['__name__']}.{caller.f_code.co_name}",
                          budgets.seed, budgets.confidence))
        return register(self, m, budgets)

    monkeypatch.setattr(decomp.IsoRegistry, "register", spy)
    isos = _spy(monkeypatch, "is_isomorphic")
    # criterion 7 places restricted classes in the sides' registries
    verify.criterion_7(verify.Fixtures(), BUDGETS)
    # the phi-zero witness pool registers the pieces of syzygies
    glued = cli.load_glue_file("remark54.glue").algebra
    analysis.phi_zero_probe(glued, BUDGETS)
    # over a selfinjective algebra a syzygy class is registered whole
    selfinj = cli.load_algebra_file("nakayama-selfinj.alg")
    homology.syzygy_class(selfinj, selfinj.registry().simple_ids["1"], BUDGETS)
    # P1 with a basis vector rescaled meets its class only by a bucket scan
    exB = cli.load_algebra_file("exB.alg")
    p1 = repmod.Rep(exB, {"1": 2, "2": 1}, {"bb1": np.array([[0, 2], [0, 0]], dtype=np.int64),
                                            "b1": np.array([[1], [0]], dtype=np.int64)})
    decomp.decompose(p1, BUDGETS)
    # (a registry seeds its simples and projectives at the defaults)
    for caller in ("quivalg.verify.criterion_7", "quivalg.analysis._witness_pool",
                   "quivalg.homology.syzygy_class", "quivalg.decomp.decompose"):
        assert _from(registers, caller) == {(3, 7)}, caller
    # the registry's bucket scans pass both on to the iso test
    assert _from(isos, "quivalg.decomp") == {(3, 7)}


SEEDED = {"decompose", "is_isomorphic", "register"}


def _hands_seed_or_confidence(call: ast.Call) -> bool:
    """Whether a call passes a seed or a confidence keyword, or an argument
    that reads some .seed or .confidence or a variable of either name."""
    names = ("seed", "confidence")
    if any(k.arg in names for k in call.keywords):
        return True
    return any(isinstance(node, ast.Attribute) and node.attr in names
               or isinstance(node, ast.Name) and node.id in names
               for arg in call.args + [k.value for k in call.keywords]
               for node in ast.walk(arg))


def test_seeded_calls_take_seed_and_confidence_only_inside_budgets():
    # a seed or a confidence passed by hand beside the Budgets that already
    # holds it is how a call once dropped one of them; decompose,
    # is_isomorphic and register read both off their Budgets alone
    found = []
    for path in sorted(pathlib.Path(decomp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SEEDED and _hands_seed_or_confidence(node):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found
