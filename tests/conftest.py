import sys

import pytest

from quivalg import cli


@pytest.fixture(scope="session")
def exA():
    return cli.load_algebra_file("exA.alg")


@pytest.fixture(scope="session")
def exB():
    return cli.load_algebra_file("exB.alg")


@pytest.fixture(scope="session")
def a2():
    return cli.load_algebra_file("a2.alg")


@pytest.fixture(scope="session")
def nak_si():
    return cli.load_algebra_file("nakayama-selfinj.alg")


@pytest.fixture(scope="session")
def nak_a3():
    return cli.load_algebra_file("nakayama-a3.alg")


@pytest.fixture(scope="session")
def exC():
    return cli.load_glue_file("exC.glue")


@pytest.fixture(scope="session")
def exCop():
    return cli.load_glue_file("exCop.glue")


@pytest.fixture(scope="session")
def remark54():
    return cli.load_glue_file("remark54.glue")


@pytest.fixture(scope="session")
def rsz():
    return cli.load_glue_file("rad-square-zero-pair.glue")


# the package functions whose decompositions syzygy classes, syzygy probes,
# orbit seeds and the registry checks of criterion 7 and zero_it_check use
REGISTRY_DECOMPOSERS = frozenset({"syzygy_class", "module_orbit", "criterion_7",
                                  "zero_it_check"})


@pytest.fixture
def probabilistic_registry_decompositions(monkeypatch):
    """Report every decomposition that a function in REGISTRY_DECOMPOSERS
    makes as probabilistic; other decompositions are left alone."""
    from quivalg import decomp

    decompose = decomp.decompose

    def probabilistic(m, *args, **kwargs):
        res = decompose(m, *args, **kwargs)
        if sys._getframe(1).f_code.co_name not in REGISTRY_DECOMPOSERS:
            return res
        return decomp.DecomposeResult(res.items, False, res.confidence)

    monkeypatch.setattr(decomp, "decompose", probabilistic)
    return monkeypatch
