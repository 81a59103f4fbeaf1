"""Seeded random bound quiver presentations, for oracle tests to share.

`random_presentation(seed)` draws a quiver on 1-3 vertices with 1-4 arrows,
a prime, and relations in three steps:
- a random half of the length-2 paths are zero (monomial relations);
- zero to three multi-term relations, each a random combination of a path
  of length 2 or 3 with up to two parallel paths no longer than it;
- on most seeds every length-4 path is zero too, which makes the algebra
  admissible with m <= 4, and the multi-term relations may mix lengths.
  On the other seeds they do not, so whether such an algebra is admissible
  shows in its homogeneous parts: some raise NotAdmissible at TRUNCATION.

The same seed always gives the same presentation.
"""

import random

from quivalg.pathalgebra import Quiver

TRUNCATION = 5


def paths(quiver: Quiver, length: int) -> list:
    """Every path with `length` arrows, as (start vertex, arrow names)."""
    layer = [(v, ()) for v in quiver.vertices]
    for _ in range(length):
        layer = [(s, w + (a.name,)) for s, w in layer
                 for a in quiver.arrows_out(quiver.arrow_map[w[-1]].target if w else s)]
    return layer


def random_presentation(seed: int):
    """(quiver, relations as lists of (coeff, arrow names), p) for one seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    vertices = [str(i) for i in range(n)]
    quiver = Quiver(vertices, [(f"x{i}", rng.choice(vertices), rng.choice(vertices))
                               for i in range(rng.randint(1, 4))])
    p = rng.choice((2, 3, 5, 101))
    killed = rng.random() < 0.75
    twos = paths(quiver, 2)
    zero = {w for _, w in rng.sample(twos, len(twos) // 2)}
    relations = [[(1, w)] for w in sorted(zero)]

    def end(key):
        return quiver.arrow_map[key[1][-1]].target

    words = twos + paths(quiver, 3)
    for _ in range(rng.randint(0, 3) if words else 0):
        lead = rng.choice(words)
        parallel = [k for k in words if k != lead and k[0] == lead[0]
                    and end(k) == end(lead) and len(k[1]) <= len(lead[1])
                    and (killed or len(k[1]) == len(lead[1]))]
        terms = [(rng.randrange(1, p), lead[1])]
        for _ in range(min(rng.randint(1, 2), len(parallel))):
            terms.append((rng.randrange(1, p), rng.choice(parallel)[1]))
        relations.append(terms)
    if killed:
        relations += [[(1, w)] for _, w in paths(quiver, 4)
                      if not any(w[i:i + 2] in zero for i in range(3))]
    return quiver, relations, p
