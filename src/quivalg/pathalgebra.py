"""Quivers, admissible relations and bound quiver algebras kQ/I.

A path is keyed by (start vertex, tuple of arrow names).  Every relation is
built by `Relation` from arrow words, (coeff, arrow names) terms: it infers
where each word starts and checks that the arrows compose and that the terms
are parallel, so no other code validates paths.  The algebra is presented by
a degree-truncated noncommutative Groebner basis under the
length-then-declared-arrow-order path order; the normal (irreducible) paths
form the working basis.  The Groebner basis is completed from one priority
queue, shortest word first, up to m_max + 1 arrows (BoundAlgebra._complete);
for a fixed ideal and order, the normal words and normal forms up to that
length do not depend on the order the queue is worked in.  An ideal with no
m <= m_max such that J^m lies in I raises NotAdmissible without listing the
paths outside I, which can double with each length.
Paths compose left to right: for w = a1 a2 the arrow a1 is applied first and
t(a1) = s(a2).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
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
        self._complete()
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

    def _heap_key(self, key: PathKey):
        """The order key negated, so heapq's min-heap pops the largest path
        first (equal lengths make the arrow tuples compare term by term)."""
        length, arrows, vertex = self._order_key(key)
        return -length, tuple(-a for a in arrows), -vertex

    # -- reduction engine ----------------------------------------------------

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
        """Fully reduce an element modulo the current rules.

        The terms wait on a max-heap of their order keys, each key built once
        per term; a term whose coefficient cancels stays on the heap and is
        skipped when popped.  A reduction puts only smaller terms in place of
        its lead, so the popped keys strictly decrease and no popped term
        comes back.
        """
        p = self.p
        work = {k: c % p for k, c in elem.items() if c % p}
        heap = [(self._heap_key(k), k) for k in work]
        heapq.heapify(heap)
        queued = set(work)
        out: dict[PathKey, int] = {}
        while heap:
            key = heapq.heappop(heap)[1]
            coeff = work.pop(key, 0)
            if not coeff:
                continue
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
                    if nk not in queued:
                        queued.add(nk)
                        heapq.heappush(heap, (self._heap_key(nk), nk))
                elif nk in work:
                    del work[nk]
        return out

    def normal_form(self, elem: dict[PathKey, int]) -> dict[PathKey, int]:
        """Reduce a formal combination {path key: coeff} to the normal basis."""
        return self._reduce(elem)

    # -- Groebner completion --------------------------------------------------

    def _complete(self):
        """Buchberger completion up to m_max + 1 arrows, shortest word first.

        The queue holds elements of I, each under the length of the word it
        was made from.  A popped element that reduces to nonzero becomes the
        rule lead -> tail, and every rule whose lead contains the new lead
        goes back on the queue as lead - tail, so no lead lies inside another
        and only end overlaps remain.  Each end overlap of the new lead with
        a rule (itself included, both orders) short enough queues its
        S-element; two monomial rules have S-element 0 and are skipped.
        """
        p, cap = self.p, self.m_max + 1
        queue: list = []
        tiebreak = itertools.count()

        def push(length, elem):
            if elem:
                heapq.heappush(queue, (length, next(tiebreak), elem))

        def start_of(word):
            return self.quiver.arrow_map[word[0]].source

        for r in self.relations:
            push(max(len(k[1]) for _, k in r.terms), r.element())
        while queue:
            elem = self._reduce(heapq.heappop(queue)[2])
            if not elem:
                continue
            (_, lead), lc = max(elem.items(), key=lambda kc: self._order_key(kc[0]))
            inv = pow(lc, p - 2, p)
            tail = {k: (-c * inv) % p for k, c in elem.items() if k[1] != lead}
            n = len(lead)
            for w in [w for w in self._rules
                      if any(w[i:i + n] == lead for i in range(len(w) - n + 1))]:
                back = {(start_of(w), w): 1}
                for k, c in self._rules.pop(w).items():
                    back[k] = -c % p
                push(len(w), back)
            self._rules[lead] = tail
            self._rule_lengths = tuple(sorted({len(w) for w in self._rules}))
            for w, w_tail in self._rules.items():
                if not (tail or w_tail):
                    continue
                for u, u_tail, v, v_tail in ((lead, tail, w, w_tail), (w, w_tail, lead, tail)):
                    # u = x o and v = o y, o nonempty: u y = x v, so tail(u) y - x tail(v) is in I
                    for ov in range(max(1, len(u) + len(v) - cap), min(len(u), len(v))):
                        if u[len(u) - ov:] != v[:ov]:
                            continue
                        s = start_of(u)
                        x, y = u[:len(u) - ov], v[ov:]
                        spoly = {(s, k[1] + y): c for k, c in u_tail.items()}
                        for k, c in v_tail.items():
                            nk = (s, x + k[1])
                            spoly[nk] = (spoly.get(nk, 0) - c) % p
                        push(len(u) + len(v) - ov, spoly)
                    if w == lead:
                        break

    # -- truncation & basis ---------------------------------------------------

    def _discover_truncation(self):
        """The least m <= m_max with J^m in I; NotAdmissible if there is none.

        A normal word of length m_max rules every m out.  Whether a word
        extends to a normal word depends only on its end vertex and its
        longest suffix that is a proper prefix of a lead, so those states are
        walked m_max steps first.  Otherwise the paths of each length outside
        I are extended, one per normal form: paths with equal normal forms
        have equal normal forms after every extension.
        """
        prefixes = {w[:i] for w in self._rules for i in range(len(w))} | {()}
        states = {(v, ()) for v in self.quiver.vertices}
        for _ in range(self.m_max):
            nxt = set()
            for end, s in states:
                for a in self.quiver.arrows_out(end):
                    w = s + (a.name,)
                    if not any(w[i:] in self._rules for i in range(len(w))):
                        nxt.add((a.target, next(w[i:] for i in range(len(w) + 1)
                                                if w[i:] in prefixes)))
            states = nxt
        if not states:
            frontier = [(v, ()) for v in self.quiver.vertices]
            for m in range(1, self.m_max + 1):
                new: dict[frozenset, PathKey] = {}
                for (start, arrows) in frontier:
                    end = self.quiver.arrow_map[arrows[-1]].target if arrows else start
                    for a in self.quiver.arrows_out(end):
                        key = (start, arrows + (a.name,))
                        nf = self._reduce({key: 1})
                        if nf:
                            new.setdefault(frozenset(nf.items()), key)
                if not new:
                    self.m = max(m, 2)
                    return
                frontier = list(new.values())
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
