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


@pytest.fixture
def probabilistic_registry_decompositions(monkeypatch):
    """Report every decomposition into a registry (syzygy classes, orbit
    seeds) as probabilistic; other decompositions are left alone."""
    from quivalg import decomp

    decompose = decomp.decompose

    def probabilistic(m, *args, **kwargs):
        res = decompose(m, *args, **kwargs)
        if kwargs.get("registry") is None:
            return res
        return decomp.DecomposeResult(res.items, False, res.confidence)

    monkeypatch.setattr(decomp, "decompose", probabilistic)
    return monkeypatch
