"""Quivers, admissible relations and bound quiver algebras kQ/I.

A path is keyed by (start vertex, tuple of arrow names).  Every relation is
built by `Relation` from arrow words, (coeff, arrow names) terms: it infers
where each word starts and checks that the arrows compose and that the terms
are parallel, so no other code validates paths.  The algebra is presented by
a degree-truncated noncommutative Groebner basis under the
length-then-declared-arrow-order path order; the normal (irreducible) paths
form the working basis.  Paths compose left to right: for w = a1 a2 the arrow
a1 is applied first and t(a1) = s(a2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .exactfield import DEFAULT_PRIME

DEFAULT_TRUNCATION = 30


class MalformedRelation(ValueError):
    """A relation names an unknown arrow, has a word whose arrows do not compose,
    has a nonzero term that is too short or not parallel to the others, or is zero."""


class NotAdmissible(ValueError):
    """No truncation degree m <= m_max kills every length-m path."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver: vertex ids plus named arrows between them."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        arrs = []
        for a in arrows:
            if isinstance(a, Arrow):
                arrs.append(a)
            else:
                name, s, t = a
                arrs.append(Arrow(str(name), str(s), str(t)))
        self.arrows = tuple(arrs)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} endpoint not a declared vertex")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_map = {a.name: a for a in self.arrows}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self._out: dict[str, tuple[Arrow, ...]] = {v: () for v in self.vertices}
        self._in: dict[str, tuple[Arrow, ...]] = {v: () for v in self.vertices}
        for a in self.arrows:
            self._out[a.source] += (a,)
            self._in[a.target] += (a,)

    def arrows_out(self, v: str) -> tuple[Arrow, ...]:
        return self._out[v]

    def arrows_in(self, v: str) -> tuple[Arrow, ...]:
        return self._in[v]

    def successor_closure(self, vs) -> frozenset[str]:
        """Smallest vertex set containing vs and closed under arrow targets."""
        seen = set(vs)
        stack = list(vs)
        while stack:
            v = stack.pop()
            for a in self._out[v]:
                if a.target not in seen:
                    seen.add(a.target)
                    stack.append(a.target)
        return frozenset(seen)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def reversed(self) -> "Quiver":
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])


# A path is keyed by (start vertex, tuple of arrow names); the empty tuple is
# the trivial path e_start.
PathKey = tuple


class Relation:
    """A k-linear combination of parallel paths of length >= 2, built from words.

    `terms` is an iterable of (coeff, arrow names).  Each word starts at the
    source of its first arrow and must compose in `quiver`.  Raises
    MalformedRelation on an empty word, an unknown arrow, arrows that do not
    compose, no nonzero term, or a nonzero term that is shorter than 2 or not
    parallel to the others.  `terms` holds (coeff, (start, arrows)) pairs
    sorted by path key.
    """

    def __init__(self, quiver: Quiver, terms, p: int):
        canon: dict[PathKey, int] = {}
        targets: dict[PathKey, str] = {}
        for coeff, word in terms:
            word = tuple(word)
            text = "*".join(word)
            arrows = [quiver.arrow_map.get(name) for name in word]
            if not arrows:
                raise MalformedRelation("relation term has no arrows")
            if None in arrows:
                unknown = word[arrows.index(None)]
                raise MalformedRelation(f"unknown arrow {unknown!r} in {text}")
            for a, b in zip(arrows, arrows[1:]):
                if a.target != b.source:
                    raise MalformedRelation(f"arrows do not compose at {b.name} in {text}")
            key = (arrows[0].source, word)
            canon[key] = (canon.get(key, 0) + int(coeff)) % p
            targets[key] = arrows[-1].target
        canon = {k: c for k, c in canon.items() if c}
        if not canon:
            raise MalformedRelation("relation has no nonzero term")
        first = next(iter(canon))
        s, t = first[0], targets[first]
        for k in canon:
            if len(k[1]) < 2:
                raise MalformedRelation(f"relation term {'*'.join(k[1])} has length < 2")
            if k[0] != s or targets[k] != t:
                raise MalformedRelation("relation terms are not parallel")
        self.terms = tuple(sorted(((canon[k], k) for k in canon), key=lambda ck: ck[1]))
        self.source, self.target = s, t

    def element(self) -> dict[PathKey, int]:
        return {k: c for c, k in self.terms}

    def words(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """The terms as (coeff, arrow names), the form the constructor takes."""
        return tuple((c, k[1]) for c, k in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"{c} {'*'.join(k[1])}" for c, k in self.terms)


class BoundAlgebra:
    """A finite-dimensional bound quiver algebra kQ/I over F_p.

    Attributes:
        quiver: the underlying quiver.
        relations: the validated generating relations.
        p: the prime.
        m: least degree with J^m = 0 in the quotient (truncation degree).
        basis: tuple of normal-path keys (the k-basis), deglex ordered.
    """

    def __init__(self, quiver: Quiver, relations, p: int, m_max: int, name: str = ""):
        self.quiver = quiver
        self.p = int(p)
        self.m_max = int(m_max)
        self.name = name or "algebra"
        self.relations = tuple(
            r if isinstance(r, Relation) else Relation(quiver, r, self.p) for r in relations
        )
        self._rules: dict[tuple, dict[PathKey, int]] = {}
        self._rule_lengths: tuple[int, ...] = ()
        self._build_groebner()
        self._discover_truncation()
        self._enumerate_basis()
        self._opposite: BoundAlgebra | None = None
        self._registry = None
        self._projectives: dict[str, object] = {}
        self.cache: dict = {}

    # -- path order ---------------------------------------------------------

    def _order_key(self, key: PathKey):
        start, arrows = key
        return (
            len(arrows),
            tuple(self.quiver.arrow_index[a] for a in arrows),
            self.quiver.vertex_index[start],
        )

    # -- reduction engine ----------------------------------------------------

    def _refresh_lengths(self):
        self._rule_lengths = tuple(sorted({len(k) for k in self._rules}))

    def _find_reduction(self, key: PathKey):
        arrows = key[1]
        n = len(arrows)
        for ln in self._rule_lengths:
            if ln > n:
                break
            for i in range(n - ln + 1):
                sub = arrows[i : i + ln]
                rule = self._rules.get(sub)
                if rule is not None:
                    return i, sub, rule
        return None

    def _reduce(self, elem: dict[PathKey, int]) -> dict[PathKey, int]:
        """Fully reduce an element modulo the current rules."""
        p = self.p
        work = {k: c % p for k, c in elem.items() if c % p}
        out: dict[PathKey, int] = {}
        while work:
            key = max(work, key=self._order_key)
            coeff = work.pop(key)
            hit = self._find_reduction(key)
            if hit is None:
                out[key] = coeff
                continue
            i, sub, tail = hit
            start, arrows = key
            prefix = arrows[:i]
            suffix = arrows[i + len(sub):]
            for tk, tc in tail.items():
                nk = (start, prefix + tk[1] + suffix)
                c = (work.get(nk, 0) + coeff * tc) % p
                if c:
                    work[nk] = c
                elif nk in work:
                    del work[nk]
        return out

    def normal_form(self, elem: dict[PathKey, int]) -> dict[PathKey, int]:
        """Reduce a formal combination {path key: coeff} to the normal basis."""
        return self._reduce(elem)

    # -- Groebner completion --------------------------------------------------

    def _add_rule(self, elem: dict[PathKey, int]):
        lead = max(elem, key=self._order_key)
        inv = pow(elem[lead], self.p - 2, self.p)
        tail = {k: (-c * inv) % self.p for k, c in elem.items() if k != lead}
        self._rules[lead[1]] = tail
        self._refresh_lengths()
        return lead[1]

    def _interreduce(self) -> bool:
        """Bring the rule set to reduced form; returns True if anything changed."""
        changed_any = False
        stable = False
        while not stable:
            stable = True
            for lm in sorted(self._rules, key=lambda w: (len(w), w)):
                if lm not in self._rules:
                    continue
                tail = self._rules.pop(lm)
                self._refresh_lengths()
                start = self.quiver.arrow_map[lm[0]].source
                if self._find_reduction((start, lm)) is not None:
                    elem = {(start, lm): 1}
                    for k, c in tail.items():
                        elem[k] = (elem.get(k, 0) - c) % self.p
                    red = self._reduce(elem)
                    if red:
                        self._add_rule(red)
                    stable = False
                    changed_any = True
                    continue
                newtail = self._reduce(tail)
                self._rules[lm] = newtail
                self._refresh_lengths()
                if newtail != tail:
                    stable = False
                    changed_any = True
        return changed_any

    def _spoly_candidates(self):
        """All overlap/inclusion alignments (u, v, o) among current rule words."""
        rules = sorted(self._rules, key=lambda w: (len(w), w))
        cap = self.m_max + 1
        for u in rules:
            for v in rules:
                for o in range(0, len(u) + 1):
                    if u == v and o == 0:
                        continue
                    ov = min(len(u) - o, len(v))
                    if ov <= 0:
                        break
                    if u[o : o + ov] != v[:ov]:
                        continue
                    word = u + v[ov:] if o + len(v) > len(u) else u
                    if len(word) <= cap:
                        yield u, v, o, word

    def _build_groebner(self):
        p = self.p
        for r in self.relations:
            red = self._reduce(r.element())
            if red:
                self._add_rule(red)
        processed: set = set()
        while True:
            self._interreduce()
            added = False
            for u, v, o, word in list(self._spoly_candidates()):
                sig = (u, v, o)
                if sig in processed:
                    continue
                processed.add(sig)
                tail_u = self._rules.get(u)
                tail_v = self._rules.get(v)
                if tail_u is None or tail_v is None:
                    continue
                start = self.quiver.arrow_map[word[0]].source
                suffix_u = word[len(u):]
                elem1: dict[PathKey, int] = {}
                for tk, tc in tail_u.items():
                    nk = (start, tk[1] + suffix_u)
                    elem1[nk] = (elem1.get(nk, 0) + tc) % p
                prefix_v = word[:o]
                suffix_v = word[o + len(v):]
                elem2: dict[PathKey, int] = {}
                for tk, tc in tail_v.items():
                    nk = (start, prefix_v + tk[1] + suffix_v)
                    elem2[nk] = (elem2.get(nk, 0) + tc) % p
                spoly = dict(elem1)
                for k, c in elem2.items():
                    spoly[k] = (spoly.get(k, 0) - c) % p
                red = self._reduce(spoly)
                if red:
                    self._add_rule(red)
                    added = True
            if not added:
                break

    # -- truncation & basis ---------------------------------------------------

    def _discover_truncation(self):
        frontier: dict[PathKey, None] = {(v, ()): None for v in self.quiver.vertices}
        for m in range(1, self.m_max + 1):
            new: dict[PathKey, None] = {}
            for (start, arrows) in frontier:
                end = self.quiver.arrow_map[arrows[-1]].target if arrows else start
                for a in self.quiver.arrows_out(end):
                    key = (start, arrows + (a.name,))
                    if key in new:
                        continue
                    if self._reduce({key: 1}):
                        new[key] = None
            if not new:
                self.m = max(m, 2)
                return
            frontier = new
        raise NotAdmissible(
            f"J^m does not vanish for any m <= {self.m_max}; "
            "the ideal is not admissible at this truncation bound"
        )

    def _enumerate_basis(self):
        basis: list[PathKey] = [(v, ()) for v in self.quiver.vertices]
        layer = list(basis)
        rule_lengths = self._rule_lengths
        while layer:
            nxt: list[PathKey] = []
            for (start, arrows) in layer:
                end = self.quiver.arrow_map[arrows[-1]].target if arrows else start
                for a in self.quiver.arrows_out(end):
                    cand = arrows + (a.name,)
                    if any(cand[len(cand) - ln:] in self._rules
                           for ln in rule_lengths if ln <= len(cand)):
                        continue
                    nxt.append((start, cand))
            basis.extend(nxt)
            layer = nxt
        basis.sort(key=self._order_key)
        self.basis = tuple(basis)
        self.dim = len(basis)

    # -- public helpers -------------------------------------------------------

    def path_target(self, key: PathKey) -> str:
        start, arrows = key
        return self.quiver.arrow_map[arrows[-1]].target if arrows else start

    def basis_from(self, v: str) -> list[PathKey]:
        return [k for k in self.basis if k[0] == v]

    def projective(self, v: str):
        """Indecomposable projective e_v A as a bound representation."""
        if v not in self._projectives:
            from . import repmod

            self._projectives[v] = repmod.projective(self, v)
        return self._projectives[v]

    def opposite(self) -> "BoundAlgebra":
        """The opposite algebra: arrows reversed, relation paths reversed."""
        if self._opposite is None:
            rq = self.quiver.reversed()
            rels = [Relation(rq, [(c, w[::-1]) for c, w in rel.words()], self.p)
                    for rel in self.relations]
            op = BoundAlgebra(rq, rels, self.p, self.m_max, name=self.name + "^op")
            op._opposite = self
            self._opposite = op
        return self._opposite

    def registry(self):
        if self._registry is None:
            from .decomp import IsoRegistry

            self._registry = IsoRegistry(self)
        return self._registry

    def structural_digest(self) -> int:
        """Stable digest of the presentation; seeds per-algebra rng streams.

        Computed once and kept in self.cache: the presentation never changes.
        """
        if "digest" not in self.cache:
            h = hashlib.sha256()
            h.update(repr((self.quiver.vertices,
                           tuple((a.name, a.source, a.target) for a in self.quiver.arrows),
                           tuple(tuple(r.terms) for r in self.relations),
                           self.p)).encode())
            self.cache["digest"] = int.from_bytes(h.digest()[:8], "big")
        return self.cache["digest"]

    def __repr__(self) -> str:
        return (f"BoundAlgebra({self.name}: |Q0|={len(self.quiver.vertices)}, "
                f"|Q1|={len(self.quiver.arrows)}, p={self.p}, dim={self.dim})")


def build_algebra(quiver: Quiver, relations, p: int = DEFAULT_PRIME,
                  m_max: int = DEFAULT_TRUNCATION, name: str = "") -> BoundAlgebra:
    """Build kQ/<relations> with truncation discovery; raises NotAdmissible."""
    return BoundAlgebra(quiver, relations, p, m_max, name=name)
