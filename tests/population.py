"""The algebras and modules the oracle tests compare the package on."""

from families import cyclic_nakayama, nakayama, radical_square_zero
from random_algebra import TRUNCATION, random_presentation

from quivalg import cli, repmod
from quivalg.pathalgebra import NotAdmissible, build_algebra

FIXTURE_ALGEBRAS = ("a2.alg", "exA.alg", "exB.alg", "nakayama-a3.alg", "nakayama-selfinj.alg",
                    "point.alg", "rsz-a.alg", "rsz-b.alg")
FIXTURE_GLUINGS = ("exC.glue", "exCop.glue", "rad-square-zero-pair.glue", "remark54.glue")


def population():
    """(group, algebra): the fixtures and their opposites, N(n, L) and C(n, L)
    for n <= 8, radical-square-zero seeds 0-59, and the admissible generated
    algebras at seeds 0-99, each built afresh."""
    fixtures = [cli.load_algebra_file(name) for name in FIXTURE_ALGEBRAS]
    fixtures += [cli.load_glue_file(name).algebra for name in FIXTURE_GLUINGS]
    for alg in fixtures + [a.opposite() for a in fixtures]:
        yield "fixtures", alg
    for family in (nakayama, cyclic_nakayama):
        for n in range(1, 9):
            for length in (2, 3, 4):
                yield "families", family(n, length)
    for seed in range(60):
        yield "radical square zero", radical_square_zero(seed)[0]
    for seed in range(100):
        try:
            yield "generated", build_algebra(*random_presentation(seed), TRUNCATION,
                                             name=f"generated {seed}")
        except NotAdmissible:
            pass


def modules(alg):
    """The sum of the simples, each simple, and three random modules."""
    simples = [repmod.simple(alg, v) for v in alg.quiver.vertices]
    yield repmod.direct_sum(simples)[0]
    yield from simples
    for seed in range(3):
        yield repmod.random_module(alg, seed, 8)
