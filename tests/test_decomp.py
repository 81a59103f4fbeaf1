import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iso_oracle import basis_first_is_isomorphic
from split_oracle import kernel_pieces
from test_repmod import FIXTURES
from quivalg import cli, decomp, exactfield as ef, fppoly, repmod
from quivalg.budgets import DEFAULT, BudgetExceeded, Budgets, RegistryAmbiguity


def test_end_algebra_dims(exA, exB):
    assert decomp.EndAlgebra(repmod.simple(exB, "1")).dim == 1
    two = repmod.direct_sum([repmod.simple(exB, "1"), repmod.simple(exB, "2")])[0]
    assert decomp.EndAlgebra(two).dim == 2
    # End(P1) over exB: evaluation at the vertex-1 component
    assert decomp.EndAlgebra(exB.projective("1")).dim == exB.projective("1").dims["1"]


def test_end_of_a_one_dimensional_module_is_its_identity():
    # the simples (every one-dimensional module over these algebras) of every
    # fixture at p = 2, 3 and 101: the solve's canonical rows are eye(1),
    # which is hom_basis's basis
    for name in FIXTURES:
        for p in (2, 3, 101):
            alg = cli.underlying_algebra(cli.load_any(name, p))
            for v in alg.quiver.vertices:
                s = repmod.simple(alg, v)
                want = repmod.hom_basis(s, s)
                rows = repmod.hom_solve(s, s).rows()
                assert rows.dtype == np.int64 and np.array_equal(rows, ef.eye(1)), (name, p, v)
                E = decomp.EndAlgebra(s)
                assert E.dim == s._end_dim == 1 and list(E.stacks) == [v]
                got, ref = E.basis_element(0)[v], want[0].mats[v]
                assert got.dtype == ref.dtype and np.array_equal(got, ref), (name, p, v)


def test_decompose_examples(exA, exB):
    reg = exB.registry()
    s1, s2 = repmod.simple(exB, "1"), repmod.simple(exB, "2")
    res = decomp.decompose(repmod.direct_sum([s1, s1, s2])[0].strip())
    assert dict(res.items) == {reg.simple_ids["1"]: 2, reg.simple_ids["2"]: 1}
    rad = repmod.radical(exB.projective("1"))[0]
    res2 = decomp.decompose(rad)
    assert dict(res2.items) == {reg.simple_ids["1"]: 1, reg.simple_ids["2"]: 1}
    # the single projective over the local algebra is indecomposable
    resA = decomp.decompose(exA.projective("0"))
    assert len(resA.items) == 1 and resA.items[0][1] == 1
    assert resA.certified


def test_summand_dims_add_up(exB):
    reg = exB.registry()
    for seed in range(20):
        m = repmod.random_module(exB, seed, 10)
        res = decomp.decompose(m.strip())
        total = np.zeros(len(exB.quiver.vertices), dtype=int)
        for eid, k in res.items:
            total += k * np.array(reg.rep(eid).dim_vector())
        assert tuple(total) == m.dim_vector()


def test_krull_schmidt_union(exB):
    for seed in range(30):
        m = repmod.random_module(exB, seed, 9)
        n = repmod.random_module(exB, seed + 500, 9)
        cm = Counter(dict(decomp.decompose(m.strip()).items))
        cn = Counter(dict(decomp.decompose(n.strip()).items))
        cb = Counter(dict(decomp.decompose(
            repmod.direct_sum([m, n])[0].strip()).items))
        assert cm + cn == cb


def test_decompose_seeds_each_fresh_block_alike(monkeypatch):
    exB = cli.load_algebra_file("exB.alg")  # its registry is fresh
    m, n = (repmod.random_module(exB, seed, 9).strip() for seed in (41, 42))
    seen = []
    certify = decomp._certify_or_split

    def spy(cur, E, rng, confidence):
        seen.append((cur, rng.bit_generator.state))
        return certify(cur, E, rng, confidence)

    monkeypatch.setattr(decomp, "_certify_or_split", spy)
    decomp.decompose(repmod.direct_sum([m, n])[0])
    # both fresh blocks and every piece split below them meet the rng in
    # the seeded initial state
    fresh = np.random.default_rng([0, exB.structural_digest() % (2 ** 31), 23])
    assert {id(m), id(n)} <= {id(cur) for cur, _ in seen} and len(seen) > 2
    assert all(state == fresh.bit_generator.state for _, state in seen)
    # a recorded sum of cached blocks builds no rng and takes no digest
    seen.clear()
    monkeypatch.setattr(exB, "structural_digest", lambda: pytest.fail("digest taken"))
    decomp.decompose(repmod.direct_sum([m, n])[0])
    assert not seen


# ---------------------------------------------------------------------------
# the registry's memo of finished decompositions


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or orig(*a, **k))
    return calls


def test_decompose_reads_the_memo_for_equal_content(monkeypatch):
    exB = cli.load_algebra_file("exB.alg")
    m = repmod.random_module(exB, 5, 9).strip()
    first = decomp.decompose(m)
    pieces = _count_calls(monkeypatch, decomp, "indecomposable_pieces")
    homs = _count_calls(monkeypatch, repmod, "hom_solve")
    registers = _count_calls(monkeypatch, decomp.IsoRegistry, "register")
    again = m.strip()
    second = decomp.decompose(again)
    assert (second.items, second.status()) == (first.items, first.status())
    assert not pieces and not homs and not registers


def test_memo_hit_leaves_the_rng_where_the_block_would(monkeypatch):
    # B is fresh; it and its pieces meet the rng in the seeded state and
    # split into the same pieces whether A's block before it is decomposed
    # afresh, read from the memo, or absent
    entered = []
    certify = decomp._certify_or_split

    def spy(cur, E, rng, confidence):
        state = rng.bit_generator.state
        status, split = certify(cur, E, rng, confidence)
        entered.append((cur, state, status, split and [x.to_json() for x in split]))
        return status, split

    monkeypatch.setattr(decomp, "_certify_or_split", spy)

    def run(before):
        alg = cli.load_algebra_file("exB.alg")
        reg = alg.registry()
        a, b = (repmod.random_module(alg, seed, 9) for seed in (5, 6))
        decomp.decompose(a.strip())
        if before == "fresh":
            reg.memo.clear()
        entered.clear()
        a, b = a.strip(), b.strip()
        # the last summand is decomposed first, so A's block comes before B's
        decomp.decompose(repmod.direct_sum([b] if before == "none" else [b, a])[0])
        assert any(cur is a for cur, *_ in entered) == (before == "fresh")
        at_b = next(i for i, (cur, *_) in enumerate(entered) if cur is b)
        into_b = [(state, status, split) for _, state, status, split in entered[at_b:]]
        fresh = np.random.default_rng([0, alg.structural_digest() % (2 ** 31), 23])
        assert all(state == fresh.bit_generator.state for state, _, _ in into_b)
        return into_b, reg.memo[(0, 40, decomp._content(b))], reg.dump()

    assert run("fresh") == run("hit") == run("none")


def test_memo_misses_on_any_key_difference(monkeypatch):
    exB, twin, a2 = (cli.load_algebra_file(name) for name in ("exB.alg", "exB.alg", "a2.alg"))
    reg = exB.registry()
    m = repmod.random_module(exB, 5, 9).strip()
    decomp.decompose(m)
    pieces = _count_calls(monkeypatch, decomp, "indecomposable_pieces")
    for kwargs in ({"seed": 1}, {"confidence": 39}):
        pieces.clear()
        decomp.decompose(m.strip(), **kwargs)
        assert pieces
    # after a fresh block (the last summand goes first) the key is the same
    pieces.clear()
    again, fresh = m.strip(), repmod.random_module(exB, 6, 9).strip()
    decomp.decompose(repmod.direct_sum([again, fresh])[0])
    assert any(args[0] is fresh for args in pieces)
    assert not any(args[0] is again for args in pieces)
    # the registry of another load of the algebra has its own memo, which
    # holds m and every piece split below it
    pieces.clear()
    decomp.decompose(repmod.Rep(twin, m.dims, m.mats))
    other = twin.registry()
    assert pieces and set(other.memo) == {(0, 40, decomp._content(args[0])) for args in pieces}
    # each piece is keyed by seed and confidence as its block is
    assert {key[:2] for key in reg.memo} == {(0, 40), (1, 40), (0, 39)}
    # S1 and S2 over 1 -> 2 have the same (empty) arrow bytes
    s1, s2 = repmod.simple(a2, "1"), repmod.simple(a2, "2")
    assert s1.mats["a"].tobytes() == s2.mats["a"].tobytes()
    decomp.decompose(s1.strip())
    pieces.clear()
    decomp.decompose(s2.strip())
    assert pieces
    # one entry apart, and isomorphic
    p1, p1_scaled = (repmod.Rep(a2, {"1": 1, "2": 1}, {"a": np.array([[c]], dtype=np.int64)})
                     for c in (1, 2))
    first = decomp.decompose(p1)
    pieces.clear()
    assert decomp.decompose(p1_scaled).items == first.items
    assert pieces


def test_registry_ambiguity_leaves_no_memo_entry(monkeypatch):
    exB = cli.load_algebra_file("exB.alg")
    reg = exB.registry()
    # P1 with a basis vector rescaled: no class representative equals it
    # entry for entry, so only an iso test can place it
    m = repmod.Rep(exB, {"1": 2, "2": 1}, {"bb1": np.array([[0, 2], [0, 0]], dtype=np.int64),
                                          "b1": np.array([[1], [0]], dtype=np.int64)})
    monkeypatch.setattr(decomp, "is_isomorphic",
                        lambda *a, **k: decomp.IsoResult("inconclusive", None, "forced"))
    with pytest.raises(RegistryAmbiguity):
        decomp.decompose(m)
    assert reg.memo == {}
    monkeypatch.undo()
    assert dict(decomp.decompose(m).items) == {reg.projective_ids["1"]: 1}
    assert len(reg.memo) == 1


def test_registry_ambiguity_leaves_no_entry_for_any_piece(monkeypatch):
    exB = cli.load_algebra_file("exB.alg")
    reg = exB.registry()
    m = repmod.random_module(exB, 5, 9).strip()
    first = decomp.decompose(m)
    before = dict(reg.memo)
    # an isomorphic copy in another basis: its pieces meet their classes'
    # representatives only through iso tests
    copy = _base_change(m, np.random.default_rng(3))
    pieces = _count_calls(monkeypatch, decomp, "indecomposable_pieces")
    monkeypatch.setattr(decomp, "is_isomorphic",
                        lambda *a, **k: decomp.IsoResult("inconclusive", None, "forced"))
    with pytest.raises(RegistryAmbiguity):
        decomp.decompose(copy)
    assert len(pieces) > 1 and reg.memo == before
    monkeypatch.undo()
    assert decomp.decompose(copy).items == first.items
    assert len(reg.memo) > len(before)


def test_a_memoized_piece_is_neither_solved_nor_registered(monkeypatch):
    exB = cli.load_algebra_file("exB.alg")
    reg = exB.registry()
    m = repmod.random_module(exB, 5, 9).strip()
    first = decomp.decompose(m)
    # forget the block alone: its split's pieces are all still recorded
    key = (0, 40, decomp._content(m))
    del reg.memo[key]
    assert len(reg.memo) >= 2
    ends = _count_calls(monkeypatch, decomp.EndAlgebra, "__init__")
    registers = _count_calls(monkeypatch, decomp.IsoRegistry, "register")
    again = m.strip()
    second = decomp.decompose(again)
    assert len(ends) == 1 and ends[0][1] is again and not registers
    assert (second.items, second.certified) == (first.items, first.certified)
    assert reg.memo[key] == (first.items, first.certified)


def test_every_memo_entry_equals_decomposing_its_piece_afresh(monkeypatch):
    pieces = decomp.indecomposable_pieces
    for name in ("exB.alg", "nakayama-a3.alg"):
        alg = cli.load_algebra_file(name)
        reg = alg.registry()
        for seed in range(6):
            split = {}

            def spy(cur, rng, confidence, memo=None, end=None):
                split[(0, 40, decomp._content(cur))] = cur
                return pieces(cur, rng, confidence, memo, end)

            monkeypatch.setattr(decomp, "indecomposable_pieces", spy)
            before = set(reg.memo)
            decomp.decompose(repmod.random_module(alg, seed, 10).strip())
            monkeypatch.undo()
            written = {k: reg.memo[k] for k in set(reg.memo) - before}
            assert set(written) == set(split)
            memo = dict(reg.memo)
            for k, entry in written.items():
                reg.memo.clear()
                res = decomp.decompose(split[k].strip())
                assert (res.items, res.certified) == entry
            reg.memo = memo


def test_decomp_cache_is_read_only_against_its_own_registry():
    # equal modules over two loads of exB: each load's registry numbers the
    # classes in the order it meets them, whatever the other has seen
    exB, twin = (cli.load_algebra_file("exB.alg") for _ in range(2))
    first = decomp.decompose(repmod.random_module(exB, 5, 9))
    decomp.decompose(repmod.random_module(twin, 6, 9))
    m = repmod.random_module(twin, 5, 9)
    got = decomp.decompose(m)
    want = decomp.decompose(m.strip())
    assert first.items == ((4, 1), (5, 1))
    assert got.items == want.items == ((6, 1), (7, 1))


def test_memo_is_read_before_the_dimension_cap():
    exB = cli.load_algebra_file("exB.alg")
    m, n = (repmod.random_module(exB, seed, 9).strip() for seed in (5, 6))
    first = decomp.decompose(m)
    small = Budgets(max_dim=min(m.total_dim, n.total_dim) - 1)
    # an equal-content copy of a cached block costs no solve, whatever its size
    assert decomp.decompose(m.strip(), budgets=small).items == first.items
    # a fresh block over the cap still raises
    with pytest.raises(BudgetExceeded):
        decomp.decompose(n, budgets=small)


def test_end_algebra_builds_of_a_fixed_stream(monkeypatch):
    # a work count, exact on any host: every distinct piece is split once,
    # so a change that stops reading or writing the piece memo raises it
    # (without the piece memo the stream builds End 53 times over exB and
    # 160 times over nakayama-a3)
    builds = _count_calls(monkeypatch, decomp.EndAlgebra, "__init__")
    counts = {}
    for name in ("exB.alg", "nakayama-a3.alg"):
        alg = cli.load_algebra_file(name)
        builds.clear()
        for seed in range(20):
            decomp.decompose(repmod.random_module(alg, seed, 10).strip())
        counts[name] = len(builds)
    assert counts == {"exB.alg": 40, "nakayama-a3.alg": 66}


@pytest.fixture
def inherited_ends(monkeypatch):
    """Check every End handed to a split piece against hom_solve(piece, piece).

    Returns the list of checked pieces' routes through _certify_or_split:
    "basis" (a basis element of the parent's End split it), "random" (past
    the radical, a random element) or "exhaustive" (the idempotent search).
    """
    routes, step, checked = {}, {}, []
    certify, radical, vectors = decomp._certify_or_split, decomp._trace_radical, decomp._fp_vectors
    init = decomp.EndAlgebra.__init__

    def certify_spy(m, E, rng, confidence):
        step["route"] = "basis"
        status, split = certify(m, E, rng, confidence)
        for piece in split or ():
            routes[id(piece)] = step["route"]
        return status, split

    def radical_spy(E):
        step["route"] = "random"
        return radical(E)

    def vectors_spy(p, n):
        step["route"] = "exhaustive"
        return vectors(p, n)

    def init_spy(self, module, rows=None):
        if rows is not None:
            want = repmod.hom_solve(module, module).rows()
            assert rows.dtype == want.dtype and np.array_equal(rows, want), module
            checked.append(routes[id(module)])
        init(self, module, rows)

    monkeypatch.setattr(decomp, "_certify_or_split", certify_spy)
    monkeypatch.setattr(decomp, "_trace_radical", radical_spy)
    monkeypatch.setattr(decomp, "_fp_vectors", vectors_spy)
    monkeypatch.setattr(decomp.EndAlgebra, "__init__", init_spy)
    return checked


@pytest.mark.parametrize("name,p", [("exB.alg", 101), ("nakayama-a3.alg", 101), ("exA.alg", 101),
                                    ("remark54.glue", 101), ("rad-square-zero-pair.glue", 101),
                                    ("exB.alg", 2), ("exB.alg", 3)])
def test_split_pieces_inherit_end_from_their_parent(name, p, inherited_ends):
    # seeded random modules and sums of two: every piece split afresh gets
    # the canonical basis a solve of End(piece) gives, bit for bit
    alg = cli.underlying_algebra(cli.load_any(name, p))
    for seed in range(10):
        m, n = (repmod.random_module(alg, s, 8) for s in (seed, seed + 100))
        decomp.decompose(repmod.direct_sum([m, n])[0].strip())
    assert len(inherited_ends) >= 10 and set(inherited_ends) == {"basis"}


@pytest.mark.parametrize("p,confidence,route", [(101, 40, "random"), (3, 0, "exhaustive")])
def test_pieces_of_random_and_exhaustive_splits_inherit_end(p, confidence, route, inherited_ends):
    # End(P + P) over k[x]/(x^2) on a basis none of whose elements splits
    # (the top [[1, 1], [7, 0]] has an irreducible minimal polynomial at
    # p = 101): a random element splits it, or with no random candidates
    # the idempotent search does, and each piece P inherits End(P)
    m, E = _dual_number_pair(p, [[1, 1], [2, 0]] if p == 3 else [[1, 1], [7, 0]])
    pieces, certified = decomp.indecomposable_pieces(m, np.random.default_rng(0), confidence,
                                                     end=E)
    assert certified and [piece.total_dim for piece in pieces] == [2, 2]
    assert inherited_ends == [route, route]


def test_end_is_solved_once_per_fresh_block(monkeypatch):
    # the streams of test_end_algebra_builds_of_a_fixed_stream: End(M) is
    # solved for every fresh block and for no piece split below one (when
    # each piece solved its own End, the streams made 38 and 63 solves)
    solves = []
    hom_solve = repmod.hom_solve

    def spy(m, n):
        if m is n:
            solves.append(m)
        return hom_solve(m, n)

    monkeypatch.setattr(repmod, "hom_solve", spy)
    counts = {}
    for name in ("exB.alg", "nakayama-a3.alg"):
        alg = cli.load_algebra_file(name)
        reg = alg.registry()
        solves.clear()
        fresh = []
        for seed in range(20):
            m = repmod.random_module(alg, seed, 10).strip()
            if (0, 40, decomp._content(m)) not in reg.memo and not m.is_zero:
                fresh.append(m)
            decomp.decompose(m)
        assert [id(x) for x in solves] == [id(x) for x in fresh]
        counts[name] = len(solves)
    assert counts == {"exB.alg": 17, "nakayama-a3.alg": 16}


def _sum_of_class_fingerprints(items, registry) -> tuple:
    """The fingerprint of the sum of the classes (id, multiplicity) in items.

    Every component is additive over direct sums: the dim vectors, the arrow
    ranks and each term of both series, a shorter series padded with zero
    vectors (rad^k and the socle layers of a summand vanish past its Loewy
    length)."""
    fps = [registry.entries[eid].fp for eid, _ in items]
    ks = [k for _, k in items]
    length = max(len(fp[3]) for fp in fps)
    zero = (0,) * len(fps[0][0])

    def total(vectors):
        return tuple(sum(k * x for k, x in zip(ks, xs)) for xs in zip(*vectors))

    def series(j):
        padded = [fp[j] + (zero,) * (length - len(fp[j])) for fp in fps]
        return tuple(total(layers) for layers in zip(*padded))

    return (total(fp[0] for fp in fps), total(fp[1] for fp in fps),
            total(fp[2] for fp in fps), series(3), series(4), total(fp[5] for fp in fps))


@pytest.mark.parametrize("name", ["exB.alg", "nakayama-a3.alg", "exA.alg", "a2.alg",
                                  "remark54.glue", "rad-square-zero-pair.glue"])
def test_fingerprint_from_classes_is_the_fingerprint(name):
    # stripped sums of three seeded random modules, decomposed against the
    # algebra's registry: the sum of the classes' fingerprints, times their
    # multiplicities, is the module's fingerprint, Python ints and all
    for p in (3, 101):
        alg = cli.underlying_algebra(cli.load_any(name, p))
        for seed in range(15):
            parts = [repmod.random_module(alg, 100 * seed + j, 8) for j in range(3)]
            m = repmod.direct_sum(parts)[0].strip()
            if m.is_zero:
                continue
            res = decomp.decompose(m, Budgets(seed=seed))
            got = _sum_of_class_fingerprints(res.items, alg.registry())
            assert repr(got) == repr(decomp.fingerprint(m.strip())), (name, p, seed)


def _fixture_algebra(name):
    if name.endswith(".glue"):
        return cli.load_glue_file(name).algebra
    return cli.load_algebra_file(name)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["a2.alg", "exB.alg", "nakayama-a3.alg", "nakayama-selfinj.alg",
                        "exA.alg", "remark54.glue", "rad-square-zero-pair.glue"]),
       st.lists(st.integers(0, 999), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_memo_agrees_with_decomposing_afresh(name, seeds, order_rng):
    # each module twice, in shuffled order, alone and as a block of a
    # recorded sum beside a different neighbour each time (listed after it
    # and before it in turn): with the memo, and with the memo emptied
    # before every call
    order = list(range(len(seeds))) * 2
    order_rng.shuffle(order)

    def run(clear):
        alg = _fixture_algebra(name)
        reg = alg.registry()
        modules = [repmod.random_module(alg, seed, 8) for seed in seeds]
        neighbours = [repmod.random_module(alg, 1000 + k, 4) for k in range(len(order))]
        results = []
        for k, i in enumerate(order):
            pair = [modules[i].strip(), neighbours[k].strip()]
            for m in (modules[i].strip(), repmod.direct_sum(pair[::(-1) ** k])[0]):
                if clear:
                    reg.memo.clear()
                res = decomp.decompose(m)
                results.append((res.items, res.certified))
        return results, reg.dump()

    assert run(clear=False) == run(clear=True)


def _base_change(m, rng):
    p = m.algebra.p
    U = {}
    for v in m.algebra.quiver.vertices:
        d = m.dims[v]
        u = rng.integers(0, p, size=(d, d)).astype(np.int64)
        while d and not ef.is_invertible(u, p):
            u = rng.integers(0, p, size=(d, d)).astype(np.int64)
        U[v] = u if d else ef.zeros(0, 0)
    mats = {}
    for a in m.algebra.quiver.arrows:
        ui = ef.invert(U[a.source], p) if m.dims[a.source] else ef.zeros(0, 0)
        mats[a.name] = ef.matmul(ef.matmul(ui, m.mats[a.name], p), U[a.target], p)
    return repmod.Rep(m.algebra, m.dims, mats)


def test_iso_examples(exB):
    s1, s2 = repmod.simple(exB, "1"), repmod.simple(exB, "2")
    assert decomp.is_isomorphic(s1, s1).verdict == "yes"
    assert decomp.is_isomorphic(s1, s2).verdict == "no"
    rng = np.random.default_rng(7)
    for seed in range(5):
        m = repmod.random_module(exB, seed, 9)
        r = decomp.is_isomorphic(m, _base_change(m, rng))
        assert r.verdict == "yes"
        assert r.witness.is_invertible()


def test_known_end_dimension_settles_no_before_the_random_rounds(monkeypatch):
    # R_1 + R_2 against R_1 + R_3 over the Kronecker quiver: equal
    # fingerprints, Hom of dimension 1, End of dimension 2
    kron = cli.parse_algebra("algebra K field 5 truncate 5\nvertex 1 2\n"
                             "arrow a: 1 -> 2\narrow b: 1 -> 2\n").build()

    def regular(*points):
        d = len(points)
        return repmod.Rep(kron, {"1": d, "2": d}, {"a": np.eye(d, dtype=np.int64),
                                                   "b": np.diag(points)})

    # each random round tests one candidate for invertibility
    calls = _count_calls(monkeypatch, repmod.RepMap, "is_invertible")
    m, n = regular(1, 2), regular(1, 3)
    assert decomp.fingerprint(m) == decomp.fingerprint(n)
    r = decomp.is_isomorphic(m, n)
    assert (r.verdict, r.method) == ("no", "hom dimension mismatch")
    assert len(calls) == 40 and m._end_dim == 2
    calls.clear()
    r = decomp.is_isomorphic(m, regular(1, 4))
    assert (r.verdict, r.method) == ("no", "hom dimension mismatch")
    assert calls == []



def _iso_outcome(res):
    witness = None if res.witness is None else {v: x.tolist() for v, x in res.witness.mats.items()}
    return res.verdict, res.method, witness


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIXTURES + ("kronecker",)), st.sampled_from([2, 3, 101]),
       st.lists(st.integers(0, 999), min_size=1, max_size=3), st.booleans(),
       st.sampled_from([0, 40]))
@example("kronecker", 101, [0], False, 40)
@example("kronecker", 101, [1], True, 0)
def test_iso_reads_the_hom_dimension_as_the_basis_first_oracle(name, p, seeds, know_end,
                                                               confidence):
    # pairs of indecomposable pieces of random modules and changes of basis
    # of them, with End dimensions known or not and with or without random
    # rounds: hom_solve's dimension is len(hom_basis), and the verdict,
    # method and witness are the oracle's.  Over the Kronecker quiver the
    # regular modules R_1, R_2 share fingerprints and have Hom zero, and
    # R_1 + R_2, R_1 + R_3 have Hom of dimension 1 and End of dimension 2.
    if name == "kronecker":
        alg = cli.parse_algebra(f"algebra K field {p} truncate 5\nvertex 1 2\n"
                                "arrow a: 1 -> 2\narrow b: 1 -> 2\n").build()
        pieces = [repmod.Rep(alg, {"1": len(pts), "2": len(pts)},
                             {"a": np.eye(len(pts), dtype=np.int64), "b": np.diag(pts) % p})
                  for pts in ((1,), (2,), (1, 2), (1, 3))]
    else:
        alg = cli.underlying_algebra(cli.load_any(name, p))
        pieces = []
    rng = np.random.default_rng(seeds)
    for seed in seeds:
        m = repmod.random_module(alg, seed, 8).strip()
        pieces += decomp.indecomposable_pieces(m, np.random.default_rng(seed), 40)[0]
    pieces += [_base_change(x, rng) for x in pieces[:2]]

    def fresh(x):
        y = x.strip()
        if know_end:
            y._end_dim = len(repmod.hom_basis(x, x))
        return y

    for m in pieces:
        for n in pieces:
            assert repmod.hom_solve(m, n).dim == len(repmod.hom_basis(m, n))
            got = decomp.is_isomorphic(fresh(m), fresh(n), confidence=confidence)
            want = basis_first_is_isomorphic(fresh(m), fresh(n), confidence=confidence)
            assert _iso_outcome(got) == _iso_outcome(want), (m, n)


def test_a_yes_iso_test_solves_hom_once(monkeypatch):
    # the basis comes from the solve that gave the dimension
    alg = cli.load_algebra_file("exB.alg")
    m = repmod.random_module(alg, 3, 9)
    n = _base_change(m, np.random.default_rng(3))
    solves = _count_calls(monkeypatch, repmod, "hom_solve")
    bases = _count_calls(monkeypatch, repmod, "hom_basis")
    r = decomp.is_isomorphic(m, n)
    assert (r.verdict, r.method) == ("yes", "random invertible hom")
    assert len(solves) == 1 and not bases


def test_fingerprint_iso_invariance(exB):
    rng = np.random.default_rng(11)
    for seed in range(10):
        m = repmod.random_module(exB, seed, 9)
        assert decomp.fingerprint(m) == decomp.fingerprint(_base_change(m, rng))


def test_registry_canonical_order_and_dedup(exB, a2):
    reg = exB.registry()
    # simples by vertex order first, then projectives
    assert reg.simple_ids == {"1": 0, "2": 1}
    assert reg.projective_ids == {"1": 2, "2": 3}
    assert reg.register(repmod.simple(exB, "1")) == 0
    rng = np.random.default_rng(3)
    m = repmod.random_module(exB, 9, 9)
    pieces, _ = decomp.indecomposable_pieces(m.strip(), rng, 40)
    ids = sorted({reg.register(x) for x in pieces})
    ids2 = sorted({reg.register(_base_change(x, rng)) for x in pieces})
    assert ids == ids2
    # P2 over a2 is the simple S2: the registry merges them
    rega = a2.registry()
    assert rega.projective_ids["2"] == rega.simple_ids["2"]
    assert rega.is_projective(rega.simple_ids["2"])



def test_register_finds_a_representative_by_content(monkeypatch):
    exB = cli.load_algebra_file("exB.alg")
    reg = exB.registry()
    for seed in range(4):
        decomp.decompose(repmod.random_module(exB, seed, 9).strip())

    def fail(*args, **kwargs):
        raise AssertionError("no fingerprint or iso test on a content hit")

    monkeypatch.setattr(decomp, "fingerprint", fail)
    monkeypatch.setattr(decomp, "is_isomorphic", fail)
    for e in reg.entries:
        assert reg.register(repmod.Rep(exB, e.rep.dims, e.rep.mats)) == e.id
    # the pieces of S1 + S1 equal S1 entry for entry: no iso test is run,
    # so none could come back inconclusive
    s1 = repmod.simple(exB, "1")
    m = repmod.direct_sum([s1, s1])[0].strip()
    assert dict(decomp.decompose(m).items) == {reg.simple_ids["1"]: 2}


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["a2.alg", "exB.alg", "nakayama-a3.alg", "nakayama-selfinj.alg",
                        "exA.alg", "remark54.glue", "rad-square-zero-pair.glue"]),
       st.lists(st.integers(0, 999), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_content_lookup_agrees_with_the_bucket_scan(name, seeds, order_rng):
    # indecomposable pieces, equal copies and changes of basis of them, in
    # shuffled order: the same ids and dump with the content map and with
    # it emptied before every registration
    alg = _fixture_algebra(name)
    rng = np.random.default_rng(seeds)
    pieces = []
    for seed in seeds:
        m = repmod.random_module(alg, seed, 8).strip()
        pieces += decomp.indecomposable_pieces(m, np.random.default_rng(seed), 40)[0]
    pieces += [x.strip() for x in pieces] + [_base_change(x, rng) for x in pieces]
    order_rng.shuffle(pieces)

    def run(clear):
        reg = decomp.IsoRegistry(alg)
        ids = []
        for x in pieces:
            if clear:
                reg.content.clear()
            ids.append(reg.register(x))
        return ids, reg.dump()

    assert run(clear=False) == run(clear=True)


def test_decompose_budget(exB):
    big = repmod.direct_sum([exB.projective("1")] * 20)[0].strip()
    with pytest.raises(BudgetExceeded):
        decomp.decompose(big, budgets=DEFAULT)


def test_zero_module_paths(exB):
    from quivalg import grothendieck as gk, homology

    z = repmod.zero_rep(exB)
    assert decomp.decompose(z).items == ()
    assert homology.syzygy(z).is_zero
    assert homology.pd(z).value == 0
    r = gk.phi(z)
    assert r.value == 0 and r.certified
    assert repmod.radical_layers(z) == []


def test_registry_dump_schema(exB):
    dump = exB.registry().dump()
    assert all(set(e) == {"id", "dims", "fingerprint", "projective", "syzygy"}
               for e in dump)
    ids = [e["id"] for e in dump]
    assert ids == sorted(ids)


def test_field_endomorphism_algebra_certified_in_quotient():
    # a Kronecker module at a degree-2 point over F_3 has End(M) = F_9: no
    # element splits it, so locality is certified in E/J(E) by an element
    # whose minimal polynomial is irreducible of full degree
    m = _kronecker_f9()
    E = decomp.EndAlgebra(m)
    assert E.dim == 2
    assert decomp._trace_radical(E)[0] == []  # J(E) = 0
    pieces, certified = decomp.indecomposable_pieces(m, np.random.default_rng(0), 5)
    assert certified and len(pieces) == 1


def test_trace_radical_codimension(exB, a2):
    # E/J(E) = F x F for P1 + S1 over exB, and M_2(F) for S1 + S1 over a2,
    # a module that is zero at vertex 2
    for m, dim_s in ((repmod.direct_sum([exB.projective("1"), repmod.simple(exB, "1")])[0], 2),
                     (repmod.power(repmod.simple(a2, "1"), 2), 4)):
        E = decomp.EndAlgebra(m)
        pivots, pair = decomp._trace_radical(E)
        assert pair is not None and E.dim - len(pivots) == dim_s


def _basis_factors(E):
    """The factorized minimal polynomial of each basis element of E."""
    return [fppoly.factor(decomp._minpoly_of_mats(E.basis_element(i), E.p), E.p,
                          np.random.default_rng(0))
            for i in range(E.dim)]


def _truncated_polynomial_ring(n, p):
    """k[x]/(x^n) over F_p and its one indecomposable projective."""
    alg = cli.parse_algebra(f"algebra L field {p} truncate 10\nvertex v\narrow x: v -> v\n"
                            f"relation 1 {'*'.join(['x'] * n)}\n").build()
    return alg.projective("v")


def test_trace_radical_passes_the_flag_when_p_is_small():
    # k[x]/(x^3) at p = 2: tr_M(x y) has radical span{x, x^2} = J(E), which
    # acts nilpotently on M although p <= dim M
    m = _truncated_polynomial_ring(3, 2)
    E = decomp.EndAlgebra(m)
    pivots, pair = decomp._trace_radical(E)
    assert E.dim == 3 and len(pivots) == 2 and pair is not None
    assert decomp.indecomposable_pieces(m, np.random.default_rng(0), 5)[1]


def _trace_radical_pivots_reference(E):
    """J(E)'s RREF pivots with every product an inline int64 numpy product:
    the radical of the trace form, kept when p > dim M or when the flag
    M, M R, M R^2, ... reaches 0, and [] (J = 0) when it stalls."""
    p = E.p
    stacks = list(E.stacks.values())
    flat = np.concatenate([b.reshape(E.dim, -1) for b in stacks], axis=1)
    pair = np.concatenate([b.transpose(0, 2, 1).reshape(E.dim, -1) for b in stacks], axis=1).T
    rad, pivots, _ = ef.rref(ef.kernel_basis(flat @ pair % p, p), p)
    if not pivots or p > E.module.total_dim:
        return pivots
    rads = [np.tensordot(rad, b, 1) % p for b in stacks]
    spans = [ef.eye(b.shape[1]) for b in stacks]
    size = sum(b.shape[1] for b in stacks)
    while size:
        spans = [ef.row_basis((u @ r % p).reshape(-1, r.shape[2]), p) for u, r in zip(spans, rads)]
        rank = sum(u.shape[0] for u in spans)
        if rank == size:
            return []
        size = rank
    return pivots


@pytest.mark.parametrize("name, p, seed", [("exA.alg", 3, 4), ("exB.alg", 2, 5)])
def test_trace_radical_flag_matches_plain_products(name, p, seed, monkeypatch):
    # decompositions with p <= dim M, so the nilpotency flag runs on the
    # radical's action: the 13-dimensional exA module has dim E = 25, and
    # J(E)'s action on it is one product of 24 x 25 by 25 x 169, on
    # ef.matmul's float64 route; exB's pieces are small, on its int64 route
    seen, radical = [], decomp._trace_radical
    monkeypatch.setattr(decomp, "_trace_radical",
                        lambda E: seen.append((E, radical(E))) or seen[-1][1])
    m = repmod.random_module(cli.load_algebra_file(name, p), seed, 16).strip()
    assert decomp.decompose(m).certified
    assert any(pivots and p <= E.module.total_dim for E, (pivots, _) in seen)
    for E, (pivots, _) in seen:
        assert pivots == _trace_radical_pivots_reference(E)


def test_trace_radical_stalls_when_p_divides_the_length():
    # k[x]/(x^2) at p = 2 on M = P: tr_M(x y) = 2 x(0) y(0) vanishes, so the
    # radical of the form is all of E; it is not nil, the flag stalls and the
    # eigenvalue certificate (E = F + span{x}) shows E is local
    m = _truncated_polynomial_ring(2, 2)
    E = decomp.EndAlgebra(m)
    assert decomp._trace_radical(E) == ([], None)
    assert decomp._local_by_eigenvalues(E, _basis_factors(E))
    assert decomp._certify_or_split(m, E, np.random.default_rng(0), 0) == ("certified", None)


def test_stalled_form_radical_is_not_trusted():
    # M = P1 + S3 over F_2 with P1 = (1 -> 2) of dimension 2 and S3 on an
    # isolated vertex: E = F x F, and tr_M(x y) = 2 x1 y1 + x2 y2 has the
    # idempotent of P1 in its radical.  Taking that radical for J(E) would
    # certify the module; the stall falls back to J = 0, and the first
    # candidate, a basis idempotent, splits it.
    alg = cli.parse_algebra("algebra T field 2 truncate 5\nvertex 1 2 3\n"
                            "arrow a: 1 -> 2\n").build()
    m = repmod.direct_sum([alg.projective("1"), repmod.simple(alg, "3")])[0].strip()
    E = decomp.EndAlgebra(m)
    assert E.dim == 2 and decomp._trace_radical(E) == ([], None)
    assert not decomp._local_by_eigenvalues(E, _basis_factors(E))
    status, pieces = decomp._certify_or_split(m, E, np.random.default_rng(0), 0)
    assert status == "pieces"
    assert sorted(piece.total_dim for piece in pieces) == [1, 2]


def test_eigenvalue_certificate_when_the_form_vanishes():
    # a local End(M) of dimension 14 for a 10-dimensional exA module at
    # p = 5: p divides the length of M, the form vanishes, and E is too big
    # for the exhaustive search (5^14 > 10^6); the eigenvalue flag certifies
    alg = cli.load_algebra_file("exA.alg", 5)
    m = repmod.random_module(alg, 11, 10).strip()
    E = decomp.EndAlgebra(m)
    assert (m.total_dim, E.dim) == (10, 14) and decomp._trace_radical(E) == ([], None)
    pieces, certified = decomp.indecomposable_pieces(m, np.random.default_rng(0), 5)
    assert certified and len(pieces) == 1


def test_eigenvalue_certificate_needs_the_flag():
    # End(S + S) = M_2(F_3) with a basis of elements with one eigenvalue
    # each (E12, E21, 1, and [[1, 1], [2, 0]] with eigenvalue 2): the shifted
    # elements include E12 and E21, whose product is not nilpotent
    point = cli.load_algebra_file("point.alg", 3)
    s = repmod.simple(point, "v")
    m = repmod.direct_sum([s, s])[0].strip()
    E = decomp.EndAlgebra(m)
    E.stacks = {"v": np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]],
                               [[1, 1], [2, 0]]], dtype=np.int64)}
    assert not decomp._local_by_eigenvalues(E, _basis_factors(E))


@pytest.mark.parametrize("name", ["exB.alg", "a2.alg", "nakayama-a3.alg", "exA.alg"])
@pytest.mark.parametrize("p", [2, 3])
def test_certified_pieces_have_local_end_brute_force(name, p):
    # every certified piece has a local End(M): enumerated, its non-units
    # form a subspace (J(E)); checked wherever p^dim E <= 3^8
    alg = cli.load_algebra_file(name, p)
    checked = 0
    for seed in range(12):
        m = repmod.random_module(alg, seed, 4 + seed % 5)
        if m.is_zero:
            continue
        rng = np.random.default_rng(seed)
        for piece in decomp.indecomposable_pieces(m.strip(), rng, 5)[0]:
            E = decomp.EndAlgebra(piece)
            if not decomp.indecomposable_pieces(piece, rng, 5)[1] or p ** E.dim > 3 ** 8:
                continue
            nonunits = [x for x in decomp._fp_vectors(p, E.dim)
                        if not all(ef.is_invertible(mat, p)
                                   for mat in E.element(x).values() if mat.size)]
            rank = ef.rank_fp(np.stack(nonunits), p)
            assert len(nonunits) == p ** rank
            checked += 1
    assert checked


# ---------------------------------------------------------------------------
# the splitting path from E/J(E), the exhaustive searches and the minimal
# polynomial of a vertexwise endomorphism


def _kronecker_f9():
    kron = cli.parse_algebra("algebra K field 3 truncate 5\nvertex 1 2\n"
                             "arrow a: 1 -> 2\narrow b: 1 -> 2\n").build()
    return repmod.Rep(kron, {"1": 2, "2": 2}, {"a": np.array([[1, 0], [0, 1]], dtype=np.int64),
                                               "b": np.array([[0, 1], [2, 0]], dtype=np.int64)})


@pytest.mark.parametrize("module", [
    lambda: cli.load_algebra_file("exB.alg").projective("1"),  # E/J(E) = F_p
    lambda: cli.load_algebra_file("exA.alg").projective("0"),  # E/J(E) = F_p
    _kronecker_f9,  # E/J(E) = E = F_9
    lambda: _truncated_polynomial_ring(2, 2),  # the form vanishes: eigenvalues
], ids=["exB-P1", "exA-P0", "kronecker-F9", "k[x]/(x^2)-p2"])
def test_local_end_is_certified_from_its_basis(module, monkeypatch):
    # each basis element of E is factored once, J(E) certifies E as local,
    # and no random element is drawn
    m = module()
    E = decomp.EndAlgebra(m)
    assert E.dim > 1
    calls = []
    split_by = decomp._split_by

    def counted(*args):
        calls.append(args[1])
        return split_by(*args)

    monkeypatch.setattr(decomp, "_split_by", counted)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    pieces, certified = decomp.indecomposable_pieces(m, rng, 40)
    assert certified and len(pieces) == 1 and pieces[0] is m
    assert len(calls) == E.dim
    assert rng.bit_generator.state == state


def test_certify_or_split_lifts_a_candidate(exB):
    # End(S1 + S1) = M_2(F): a candidate of E/J(E) with a reducible minimal
    # polynomial lifts to an endomorphism that splits the module
    s1 = repmod.simple(exB, "1")
    m = repmod.direct_sum([s1, s1])[0].strip()
    status, pieces = decomp._certify_or_split(m, decomp.EndAlgebra(m), np.random.default_rng(0), 5)
    assert status == "pieces"
    assert [piece.dims for piece in pieces] == [{"1": 1, "2": 0}] * 2


def test_certify_or_split_lifts_the_exhaustive_idempotent():
    # End(S + S) = M_2(F_2) over a one-vertex algebra, with a basis none of
    # whose elements splits: two nilpotents, a unipotent and a field element
    # (minimal polynomials x^2, x^2, (x+1)^2, x^2+x+1).  With no random
    # candidates only the exhaustive idempotent search is left to split it.
    point = cli.load_algebra_file("point.alg", 2)
    s = repmod.simple(point, "v")
    m = repmod.direct_sum([s, s])[0].strip()
    E = decomp.EndAlgebra(m)
    E.stacks = {"v": np.array([[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [0, 1]],
                               [[0, 1], [1, 1]]], dtype=np.int64)}
    assert decomp._trace_radical(E)[0] == []  # E/J(E) = E, of dimension 4
    status, pieces = decomp._certify_or_split(m, E, np.random.default_rng(0), 0)
    assert status == "pieces"
    assert [piece.dims for piece in pieces] == [{"v": 1}] * 2


def test_exhaustive_idempotent_search_certifies_a_local_end():
    # the regular Kronecker module of length 2 at the degree-2 point over F_2:
    # a = 1 and b = the companion matrix of (x^2 + x + 1)^2, so E = F_2[b],
    # local with E/J(E) = F_4.  M has length 4 over E, so tr_M(x y) vanishes,
    # and no basis element has an eigenvalue in F_2: J(E) is not found, and
    # the search over all 16 elements of E finds no nontrivial idempotent.
    kron = cli.parse_algebra("algebra K field 2 truncate 5\nvertex 1 2\n"
                             "arrow a: 1 -> 2\narrow b: 1 -> 2\n").build()
    comp = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0]], dtype=np.int64)
    m = repmod.Rep(kron, {"1": 4, "2": 4}, {"a": np.eye(4, dtype=np.int64), "b": comp})
    E = decomp.EndAlgebra(m)
    assert E.dim == 4 and decomp._trace_radical(E) == ([], None)
    assert not decomp._local_by_eigenvalues(E, _basis_factors(E))
    assert decomp._certify_or_split(m, E, np.random.default_rng(0), 0) == ("certified", None)


def _dual_number_pair(p, top):
    """M = P + P over k[x]/(x^2) at p, and E = End(M) = M_2(k[x]/(x^2)) on a
    basis of E12, E21, 1 + x E11 and top + x E22, then x times the matrix
    units; top is a 2x2 matrix whose minimal polynomial is a prime power."""
    alg = cli.parse_algebra(f"algebra L field {p} truncate 10\nvertex v\narrow x: v -> v\n"
                            "relation 1 x*x\n").build()
    proj = alg.projective("v")
    m = repmod.direct_sum([proj, proj])[0].strip()
    E = decomp.EndAlgebra(m)

    def unit(i, j):
        u = np.zeros((2, 2), dtype=np.int64)
        u[i, j] = 1
        return u

    # c0 + x c1 in M_2(k[x]/(x^2)) acts on M = k^2 (x) P as kron(c0, 1) + kron(c1, x)
    x = proj.mats["x"]
    zero = np.zeros((2, 2), dtype=np.int64)
    pairs = [(unit(0, 1), zero), (unit(1, 0), zero), (np.eye(2, dtype=np.int64), unit(0, 0)),
             (np.array(top), unit(1, 1))]
    pairs += [(zero, unit(i, j)) for i in range(2) for j in range(2)]
    E.stacks = {"v": np.array([(np.kron(c0, np.eye(2, dtype=np.int64)) + np.kron(c1, x)) % p
                               for c0, c1 in pairs], dtype=np.int64)}
    return m, E


def test_exhaustive_idempotent_search_works_modulo_the_radical():
    # End(P + P) = M_2(k[x]/(x^2)) at p = 3, with J(E) = x M_2(k) found by the
    # form and a basis of E/J(E) lifted as E12, E21, 1 + x E11 and
    # [[1, 1], [2, 0]] + x E22: no element splits, and no lift of an
    # idempotent of E/J(E) is an idempotent of E, so the search must test
    # e^2 - e for membership in J(E), not for zero
    m, E = _dual_number_pair(3, [[1, 1], [2, 0]])
    pivots, pair = decomp._trace_radical(E)
    assert pivots == [4, 5, 6, 7] and pair is not None
    status, pieces = decomp._certify_or_split(m, E, np.random.default_rng(0), 0)
    assert status == "pieces"
    assert [piece.total_dim for piece in pieces] == [2, 2]


def test_minpoly_of_mats_is_the_lcm_over_vertices():
    for p in (2, 3, 101):
        rng = np.random.default_rng(p)
        for _ in range(40):
            mats = {}
            for v in "abc":
                d = int(rng.integers(0, 5))
                # low rank plus a scalar, so vertices share eigenvalues
                k = int(rng.integers(0, d + 1))
                mat = rng.integers(0, p, size=(d, k)) @ rng.integers(0, p, size=(k, d))
                mats[v] = ((mat + int(rng.integers(0, 2)) * np.eye(d, dtype=np.int64)) % p
                           ).astype(np.int64)
            want = [1]
            for mat in mats.values():
                if mat.shape[0]:
                    mv = fppoly.min_poly_matrix(mat, p)
                    g = fppoly.gcd(want, mv, p)
                    want = fppoly.divmod_poly(fppoly.mul(want, mv, p), g, p)[0]
            assert np.array_equal(decomp._minpoly_of_mats(mats, p), want)



def _kronecker_f2():
    # the module of test_exhaustive_idempotent_search_certifies_a_local_end
    kron = cli.parse_algebra("algebra K field 2 truncate 5\nvertex 1 2\n"
                             "arrow a: 1 -> 2\narrow b: 1 -> 2\n").build()
    comp = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0]], dtype=np.int64)
    return repmod.Rep(kron, {"1": 4, "2": 4}, {"a": np.eye(4, dtype=np.int64), "b": comp})


def _split_pieces_match_the_oracle(m, seed):
    """Split m by each basis element of End(m); returns how many split it."""
    split = 0
    E = decomp.EndAlgebra(m)
    for i in range(E.dim):
        f = E.basis_element(i)
        factors, pieces = decomp._split_by(m, f, np.random.default_rng(seed))
        if pieces is None:
            continue
        split += 1
        for got, want in zip(pieces, kernel_pieces(m, f, factors)):
            assert got.dims == want.dims
            for a in m.algebra.quiver.arrows:
                x, y = got.mats[a.name], want.mats[a.name]
                assert x.dtype == y.dtype and np.array_equal(x, y), (m, a.name)
    return split


@pytest.mark.parametrize("p", [2, 3, 101])
def test_square_zero_split_attempts_skip_the_minimal_polynomial(p, monkeypatch):
    # every End-basis element of seeded random modules over every fixture:
    # _split_by's factors and rng after-state are the full path's,
    # factor(_minpoly_of_mats(f)); a nonzero f with f_v f_v = 0 everywhere
    # gets x^2 with no Krylov or draw, and f = 0 keeps the full path (x)
    krylov = _count_calls(monkeypatch, fppoly, "min_poly_matrix")
    square_zero = 0
    for name in FIXTURES:
        alg = cli.underlying_algebra(cli.load_any(name, p))
        for seed in range(3):
            m = repmod.random_module(alg, seed, 9).strip()
            if m.is_zero:
                continue
            E = decomp.EndAlgebra(m)
            zero = {v: np.zeros_like(s[0]) for v, s in E.stacks.items()}
            for f in [E.basis_element(i) for i in range(E.dim)] + [zero]:
                nilsquare = not any((x @ x % p).any() for x in f.values())
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                state = rng.bit_generator.state
                krylov.clear()
                factors, pieces = decomp._split_by(m, f, rng)
                assert bool(krylov) == (not nilsquare or f is zero)
                want = fppoly.factor(decomp._minpoly_of_mats(f, p), p, ref)
                assert factors == want and rng.bit_generator.state == ref.bit_generator.state
                if nilsquare:
                    assert pieces is None and rng.bit_generator.state == state
                    assert factors == ([([0, 1], 1)] if f is zero else [([0, 1], 2)])
                    square_zero += f is not zero
    assert square_zero >= 100


@pytest.mark.parametrize("p", [2, 3, 101])
def test_split_pieces_match_the_kernel_oracle(p):
    # every basis element of End(M) for seeded random modules and a sum of
    # two, over every fixture and its opposite
    split = 0
    for name in FIXTURES:
        alg = cli.underlying_algebra(cli.load_any(name, p))
        for a in (alg, alg.opposite()):
            mods = [repmod.random_module(a, seed, 9) for seed in range(3)]
            for seed, m in enumerate(mods + [repmod.direct_sum(mods[:2])[0].strip()]):
                split += _split_pieces_match_the_oracle(m, seed)
    assert split >= 100


def test_split_pieces_of_the_f2_kronecker_module_match_the_kernel_oracle():
    # End(M) is local, so no basis element splits M; End(M + M) = M_2(End M)
    m = _kronecker_f2()
    assert _split_pieces_match_the_oracle(m, 0) == 0
    assert _split_pieces_match_the_oracle(repmod.direct_sum([m, m])[0].strip(), 0) > 0


# witnesses of the exhaustive iso sweep, recorded at the commit that still had
# its own odometer: the first invertible combination in projective order, first
# coordinate fastest.  Sweeping with the last coordinate fastest finds another
# witness on each pair, so these pin the order.
EXHAUSTIVE_WITNESSES = [
    ("exB.alg", 3, 11, 6, {"1": [[0, 1, 0], [1, 1, 1], [2, 1, 0]], "2": [[0, 1], [1, 0]]}),
    ("exB.alg", 2, 26, 5, {"1": [[1, 0], [0, 1]], "2": [[1, 1, 0], [0, 1, 1], [0, 1, 0]]}),
    ("nakayama-a3.alg", 2, 12, 5, {"1": [[0, 1], [1, 1]], "2": [[1, 1], [1, 0]], "3": [[1]]}),
]


@pytest.mark.parametrize("name,p,seed,size,witness", EXHAUSTIVE_WITNESSES)
def test_iso_exhaustive_search_witness_pinned(name, p, seed, size, witness):
    alg = cli.load_algebra_file(name, p)
    m = repmod.random_module(alg, seed, size)
    n = _base_change(m, np.random.default_rng(seed))
    assert 3 <= len(repmod.hom_basis(m, n)) <= 6
    r = decomp.is_isomorphic(m, n, confidence=0)
    assert (r.verdict, r.method) == ("yes", "exhaustive search")
    assert {v: x.tolist() for v, x in r.witness.mats.items()} == witness


# recorded before the iso test formed its candidates from the canonical rows
# of Hom rather than from a list of RepMaps
ISO_WITNESS_DIGEST = "9a40897b779d1d1a84e77b08e2a26facccbfd0c85c975aa56972f8cab5dd1b41"


def test_iso_witnesses_are_unchanged():
    # every bundled fixture at p = 2, 3 and 101: seeded random modules
    # against a change of basis (the random rounds), then every ordered pair
    # of distinct indecomposable pieces of them, and changes of basis of the
    # pieces, with equal fingerprints and End dimensions, with 40 rounds and
    # with the exhaustive sweep alone
    h = hashlib.sha256()
    for name in FIXTURES:
        for p in (2, 3, 101):
            alg = cli.underlying_algebra(cli.load_any(name, p))
            rng = np.random.default_rng([p, 5])
            pieces = []
            for seed in range(3):
                m = repmod.random_module(alg, seed, 8).strip()
                if m.is_zero:
                    continue
                res = decomp.is_isomorphic(m, _base_change(m, rng), seed=seed)
                h.update(json.dumps(_iso_outcome(res)).encode())
                pieces += decomp.indecomposable_pieces(m, np.random.default_rng(seed), 40)[0]
            pieces = list({decomp._content(x): x for x in pieces}.values())
            pieces += [_base_change(x, rng) for x in pieces]
            ends = [repmod.hom_solve(x, x).dim for x in pieces]
            for i, x in enumerate(pieces):
                for j, y in enumerate(pieces):
                    if i != j and ends[i] == ends[j] and decomp.fingerprint(x) == decomp.fingerprint(y):
                        for confidence in (40, 0):
                            res = decomp.is_isomorphic(x.strip(), y.strip(), seed=i,
                                                       confidence=confidence)
                            h.update(json.dumps(_iso_outcome(res)).encode())
    assert h.hexdigest() == ISO_WITNESS_DIGEST


# recorded before the iso test read dim Hom off hom_solve, the split pieces
# came from images and the registry looked classes up by content
DECOMPOSE_DIGEST = "bd794a030b6beab8b82f33cf2bc69c4b99d6e90273fc91e42e6b6d9dd9ce637f"


def test_decompositions_are_unchanged():
    # every bundled fixture and its opposite at p = 2, 3 and 101, one fresh
    # registry each: seeded random modules and a sum of two, then the dump
    h = hashlib.sha256()
    for name in FIXTURES:
        for p in (2, 3, 101):
            alg = cli.underlying_algebra(cli.load_any(name, p))
            for a in (alg, alg.opposite()):
                reg = a.registry()
                mods = [repmod.random_module(a, seed, (8, 10, 12)[seed % 3]) for seed in range(6)]
                for seed, m in enumerate(mods + [repmod.direct_sum(mods[:2])[0]]):
                    res = decomp.decompose(m.strip(), seed=seed)
                    h.update(json.dumps([res.items, res.certified]).encode())
                h.update(json.dumps(reg.dump(), sort_keys=True).encode())
    assert h.hexdigest() == DECOMPOSE_DIGEST
