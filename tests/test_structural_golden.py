"""Golden digest of the presentations of every bundled fixture.

For each fixture's algebra (the glued algebra of a `.glue` file), its
opposite and its restriction to each proper successor-closed vertex set, the
structural digest and the printed relations, in order, are hashed.  The
structural digest seeds every rng stream, so a change to the content or the
order of relations, wherever they are built, changes this digest.
"""

import hashlib
import itertools
import os

from quivalg import cli, homology

STRUCTURAL_DIGEST = "ab88ca04fffb1cb1"


def _closed_proper_subsets(alg):
    vs = alg.quiver.vertices
    for r in range(1, len(vs)):
        for combo in itertools.combinations(vs, r):
            if alg.quiver.successor_closure(combo) == frozenset(combo):
                yield frozenset(combo)


def _presentations(alg):
    yield alg
    yield alg.opposite()
    for vs in _closed_proper_subsets(alg):
        yield homology.restricted_algebra(alg, vs)


def structural_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(cli.fixtures_dir())):
        alg = cli.underlying_algebra(cli.load_any(name))
        for b in _presentations(alg):
            line = (name, b.name, b.structural_digest(), [str(r) for r in b.relations])
            h.update((repr(line) + "\n").encode())
    return h.hexdigest()[:16]


def test_structural_digest_is_golden():
    assert structural_digest() == STRUCTURAL_DIGEST
