import hashlib
import json

import numpy as np
import pytest

from fingerprint_oracle import quotient_fingerprint
from hom_oracle import kron_hom_basis
from random_module_oracle import oracle_random_module
from selfinjective_oracle import dualize
from quivalg import cli, decomp, exactfield as ef, grothendieck, repmod
from quivalg.budgets import DEFAULT
from quivalg.pathalgebra import Quiver, build_algebra

FIXTURES = ("a2.alg", "exA.alg", "exB.alg", "exC.glue", "exCop.glue", "nakayama-a3.alg",
            "nakayama-selfinj.alg", "point.alg", "rad-square-zero-pair.glue",
            "remark54.glue", "rsz-a.alg", "rsz-b.alg")


def _is_hom(f: repmod.RepMap) -> bool:
    """Whether f's vertexwise matrices commute with every arrow: the
    definition of a module homomorphism, checked square by square."""
    p = f.source.algebra.p
    return all(np.array_equal(ef.matmul(f.source.mats[a.name], f.mats[a.target], p),
                              ef.matmul(f.mats[a.source], f.target.mats[a.name], p))
               for a in f.source.algebra.quiver.arrows)


def test_validate_projectives_and_simples(exB):
    for v in exB.quiver.vertices:
        assert repmod.validate(exB.projective(v)) is None
        assert repmod.validate(repmod.simple(exB, v)) is None


def test_validate_catches_violation():
    q = Quiver(["v"], [("g", "v", "v")])
    alg = build_algebra(q, [[(1, ("g", "g"))]], 101, 30)
    # identity under g^2 = 0
    bad = repmod.Rep(alg, {"v": 1}, {"g": np.array([[1]], dtype=np.int64)})
    violation = repmod.validate(bad)
    assert violation is not None
    assert violation.value.any()


def test_hom_dimensions(a2, exB):
    s1, s2 = repmod.simple(a2, "1"), repmod.simple(a2, "2")
    assert len(repmod.hom_basis(s1, s1)) == 1
    assert len(repmod.hom_basis(s1, s2)) == 0
    assert len(repmod.hom_basis(a2.projective("1"), s1)) == 1
    # End(P1) over the radical-square-zero algebra has dimension 2
    assert len(repmod.hom_basis(exB.projective("1"), exB.projective("1"))) == 2


def _fixture_modules(name, p):
    """Simples, projectives, seeded random modules, a sum of two of them and 0."""
    alg = cli.underlying_algebra(cli.load_any(name, p))
    verts = alg.quiver.vertices
    rand = [repmod.random_module(alg, seed, 9) for seed in range(4)]
    return alg, ([repmod.simple(alg, v) for v in verts] + [alg.projective(v) for v in verts]
                 + rand + [repmod.direct_sum(rand[:2])[0], repmod.zero_rep(alg)])


@pytest.mark.parametrize("p", [2, 3, 101])
def test_hom_basis_matches_the_kron_oracle(p):
    # bit for bit, on seeded pairs of simples, projectives, random modules,
    # a sum of two of them and the zero module, over every bundled fixture;
    # hom_solve alone gives the dimension
    for name in FIXTURES:
        alg, mods = _fixture_modules(name, p)
        verts = alg.quiver.vertices
        rng = np.random.default_rng([p, len(name)])
        for _ in range(16):
            m, n = (mods[i] for i in rng.integers(len(mods), size=2))
            got, want = repmod.hom_basis(m, n), kron_hom_basis(m, n)
            assert repmod.hom_solve(m, n).dim == len(got) == len(want), (name, m, n)
            for f, g in zip(got, want):
                assert _is_hom(f)
                for v in verts:
                    assert np.array_equal(f.mats[v], g.mats[v]), (name, m, n)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_canonical_rows_is_the_reversed_rref(p, monkeypatch):
    # sparse spanning sets, most rows with one nonzero entry (some repeated,
    # some zero rows, some rows that become unit rows once the unit columns
    # are cleared), on both sides of RREF_LIST_CELLS: the unit-row shortcut
    # gives the RREF in reversed column order, flipped back, bit for bit
    rng = np.random.default_rng(p)
    reduced = []
    rref = ef.rref
    monkeypatch.setattr(ef, "rref", lambda m, *a: reduced.append(m.shape[0]) or rref(m, *a))
    for trial in range(120):
        rows, cols = int(rng.integers(1, 120)), int(rng.integers(1, 60))
        m = np.zeros((rows, cols), dtype=np.int64)
        for i in range(rows):
            k = min(cols, int(rng.choice([0, 1, 1, 1, 1, 2, 3, cols])))
            m[i, rng.choice(cols, size=k, replace=False)] = rng.integers(1, p, size=k)
        want = rref(m[:, ::-1], p)[0][::-1, ::-1]
        reduced.clear()
        got = repmod.canonical_rows(m, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), trial
        # only the rows that are not unit rows are row-reduced
        if m.size > ef.RREF_LIST_CELLS and (np.count_nonzero(m, axis=1) == 1).any():
            assert reduced[0] < rows


@pytest.mark.parametrize("p", [2, 3, 101])
def test_fingerprint_matches_the_quotient_oracle(p):
    # the same tuple, entry types and repr included, on the modules of the
    # hom oracle test over every bundled fixture; the radical layers agree too
    for name in FIXTURES:
        for m in _fixture_modules(name, p)[1]:
            want = quotient_fingerprint(m)
            got = decomp.fingerprint(m)
            assert got == want and repr(got) == repr(want), (name, m)
            assert len(repmod.radical_layers(m)) == len(want[3]), (name, m)


def test_series_of_a_module_that_is_its_own_radical_raise(exB):
    # bb1 * bb1 = 0 fails, so this module equals its own radical
    m = repmod.Rep(exB, {"1": 1}, {"bb1": np.array([[1]], dtype=np.int64)})
    for series in (decomp.fingerprint, repmod.radical_layers):
        with pytest.raises(ValueError, match="equals its own radical"):
            series(m)


def test_presentation_is_a_presentation(exB, nak_a3):
    for alg in (exB, nak_a3):
        p = alg.p
        for seed in range(8):
            m = repmod.random_module(alg, seed, 10)
            pres = repmod.presentation(m)
            assert repmod.presentation(m) is pres
            cover, epi = repmod.projective_cover(m)
            assert _is_hom(epi) and epi.is_surjective()
            for w in alg.quiver.vertices:
                rows, inv = pres.sections[w]
                section = ef.zeros(m.dims[w], cover.dims[w])
                section[:, rows] = inv
                assert np.array_equal(ef.matmul(section, epi.mats[w], p), ef.eye(m.dims[w]))
                omega = pres.omega[w]
                assert omega.shape == (cover.dims[w] - m.dims[w], cover.dims[w])
                assert not ef.matmul(omega, epi.mats[w], p).any()
                assert ef.rank_fp(omega, p) == omega.shape[0]


def test_direct_sum_dims_and_maps(exB):
    s1, s2, p1 = repmod.simple(exB, "1"), repmod.simple(exB, "2"), exB.projective("1")
    parts = [s1, p1, s2, p1]
    total, offs = repmod.direct_sum(parts)
    assert total.dims == {v: sum(x.dims[v] for x in parts) for v in exB.quiver.vertices}
    assert total.summands == tuple(parts)
    for v in exB.quiver.vertices:
        assert [off[v] for off in offs] == list(np.cumsum([0] + [x.dims[v] for x in parts[:-1]]))
    # each summand's block sits at its offsets, with zeros elsewhere
    for a in exB.quiver.arrows:
        rest = total.mats[a.name].copy()
        for x, off in zip(parts, offs):
            block = (slice(off[a.source], off[a.source] + x.dims[a.source]),
                     slice(off[a.target], off[a.target] + x.dims[a.target]))
            assert np.array_equal(rest[block], x.mats[a.name])
            rest[block] = 0
        assert not rest.any()
    # one summand is the sum itself
    assert repmod.direct_sum([p1]) == (p1, [{v: 0 for v in exB.quiver.vertices}])
    assert repmod.power(p1, 1) is p1


def test_quotient_examples(exB):
    p1 = exB.projective("1")
    q = repmod.quotient(p1, {})
    assert q.total_dim == p1.total_dim
    assert q.equals(p1)  # the identity basis is the earliest complement of 0
    assert repmod.quotient(p1, {v: ef.eye(p1.dims[v]) for v in p1.dims}).is_zero


def test_quotient_rejects_non_submodule(a2):
    p1 = a2.projective("1")
    # the vertex-1 line alone is not arrow-stable (a sends it onto vertex 2)
    for build in (repmod.quotient, repmod.submodule):
        with pytest.raises(repmod.NotASubmodule):
            build(p1, {"1": np.array([[1]], dtype=np.int64)})


def test_submodule_arrows_solve_the_inclusion(exB, nak_a3):
    # X with X B_t = B_s m_a is unique (B_t has full row rank): the one a
    # general solver finds, and the inclusion is a module map
    for alg in (exB, nak_a3):
        for seed in range(6):
            m = repmod.random_module(alg, seed, 9)
            for sub, inc in (repmod.radical(m), repmod.socle(m)):
                assert _is_hom(inc)
                for a in alg.quiver.arrows:
                    moved = ef.matmul(inc.mats[a.source], m.mats[a.name], alg.p)
                    want = ef.solve(inc.mats[a.target].T, moved.T, alg.p).T
                    assert np.array_equal(sub.mats[a.name], want)


def test_span_rows_of_the_wrong_width_are_rejected(exB):
    p1 = exB.projective("1")
    assert p1.dims["2"] != 3
    for build in (repmod.submodule, repmod.generated_submodule, repmod.quotient):
        with pytest.raises(ValueError, match="vertex 2: rows of width 3"):
            build(p1, {"2": np.array([[1, 0, 0]], dtype=np.int64)})


def test_radical_socle_top_loewy(exA, exB, a2):
    rad, _ = repmod.radical(a2.projective("1"))
    assert rad.dims == {"1": 0, "2": 1}
    radB, _ = repmod.radical(exB.projective("1"))
    assert radB.dims == {"1": 1, "2": 1}  # S1 + S2
    assert repmod.radical(repmod.simple(exB, "1"))[0].is_zero
    socA, _ = repmod.socle(exA.projective("0"))
    assert socA.total_dim == 1
    assert len(repmod.radical_layers(repmod.simple(exB, "1"))) == 1
    assert len(repmod.radical_layers(exB.projective("1"))) == 2
    assert len(repmod.radical_layers(repmod.zero_rep(a2))) == 0
    top = repmod.top(exB.projective("1"))
    assert top.dims == {"1": 1, "2": 0}


def test_dualize_examples(a2, exB):
    s1 = repmod.simple(a2, "1")
    d = dualize(s1)
    assert d.algebra is a2.opposite()
    assert d.dims == s1.dims
    dd = dualize(d)
    assert dd.algebra is a2
    assert dd.equals(s1)
    dp = dualize(a2.projective("1"))
    assert dp.dims == {"1": 1, "2": 1}
    assert repmod.validate(dp) is None
    m = repmod.random_module(exB, 3, 9)
    r = decomp.is_isomorphic(dualize(dualize(m)), m)
    assert r.verdict == "yes"


def test_socle_dual_of_top(exB):
    for seed in range(10):
        m = repmod.random_module(exB, seed, 9)
        lhs = repmod.socle(dualize(m))[0].dim_vector()
        rhs = repmod.top(m).dim_vector()
        assert lhs == rhs


def test_random_module_contract(exB, exA):
    for alg in (exB, exA):
        for seed in range(30):
            m = repmod.random_module(alg, seed, 11)
            again = repmod.random_module(alg, seed, 11)
            assert m.equals(again)
            assert repmod.validate(m) is None
            assert m.total_dim <= 11


# SHA-256 of the random_module outputs below, recorded before quotient took
# rows and direct_sum stopped building maps
RANDOM_MODULE_DIGEST = "62311b7cef56972d4131287bd67c62fe9dd0fdfca0f95dd2f4b00ce4d5a3aa08"


def test_random_module_outputs_are_unchanged():
    # every bundled fixture and its opposite at p = 2, 3 and 101, seeds 0-2
    # at size bounds 8, 10 and 12
    h = hashlib.sha256()
    for name in FIXTURES:
        for p in (2, 3, 101):
            alg = cli.underlying_algebra(cli.load_any(name, p))
            for a in (alg, alg.opposite()):
                for seed, bound in enumerate((8, 10, 12)):
                    m = repmod.random_module(a, seed, bound)
                    h.update(json.dumps(m.to_json(), sort_keys=True).encode())
    assert h.hexdigest() == RANDOM_MODULE_DIGEST


def _same_random_module(alg, seed, bound, generator=False):
    """random_module and the oracle agree on the module and, with a Generator
    built from seed, on the rng state they leave behind."""
    mine, theirs = ((np.random.default_rng(seed), np.random.default_rng(seed)) if generator
                    else (seed, seed))
    got, want = repmod.random_module(alg, mine, bound), oracle_random_module(alg, theirs, bound)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json()), (alg.name, seed, bound)
    if generator:
        assert mine.bit_generator.state == theirs.bit_generator.state
    return got


@pytest.mark.parametrize("p", [2, 3, 101])
def test_random_module_matches_the_oracle(p):
    # seeds 3-5, disjoint from test_random_module_outputs_are_unchanged, and
    # one Generator per algebra, on every bundled fixture and its opposite
    for name in FIXTURES:
        alg = cli.underlying_algebra(cli.load_any(name, p))
        for a in (alg, alg.opposite()):
            for seed, bound in zip((3, 4, 5), (8, 10, 12)):
                _same_random_module(a, seed, bound)
            _same_random_module(a, [p, len(name)], 9, generator=True)


def test_random_module_fallback_and_projective_paths_match_the_oracle(monkeypatch):
    # size bound 0 rejects all 64 attempts: the rng must be drawn as often
    for name in ("exB.alg", "nakayama-selfinj.alg"):
        alg = cli.load_algebra_file(name, 3)
        got = _same_random_module(alg, 7, 0, generator=True)
        assert got.equals(repmod.simple(alg, alg.quiver.vertices[0]))
    # over a2 (1 -> 2) only Hom(P2, rad P1) is nonzero, so some attempts
    # return the projective sum q with no quotient taken
    a2 = cli.load_algebra_file("a2.alg", 2)
    quotients = []
    quotient = repmod.quotient
    monkeypatch.setattr(repmod, "quotient", lambda *a: quotients.append(1) or quotient(*a))
    paths = set()
    for seed in range(12):
        before = len(quotients)
        got = repmod.random_module(a2, seed, 6)
        paths.add(len(quotients) > before)
        assert got.equals(oracle_random_module(a2, seed, 6))
    assert paths == {True, False}


def test_random_module_reads_cached_blocks(monkeypatch):
    calls = []
    for name in ("hom_basis", "submodule", "presentation", "radical", "direct_sum",
                 "combine_maps"):
        f = getattr(repmod, name)
        monkeypatch.setattr(repmod, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    strip = repmod.Rep.strip
    monkeypatch.setattr(repmod.Rep, "strip", lambda m: calls.append("strip") or strip(m))
    alg = cli.load_any("exC.glue").algebra
    repmod.random_module(alg, 0, 12)
    # the first call builds one Hom(P_s, rad P_t) per pair of vertices
    assert calls.count("hom_basis") == len(alg.quiver.vertices) ** 2
    calls.clear()
    for seed in range(1, 20):
        repmod.random_module(alg, seed, 12)
    assert calls == []
    # the opposite and the same presentation at another p build their own
    for other in (alg.opposite(), cli.load_any("exC.glue", 3).algebra):
        repmod.random_module(other, 0, 12)
        assert calls.count("hom_basis") == len(other.quiver.vertices) ** 2
        calls.clear()


def test_hom_additivity(exB):
    # in each argument
    for seed in range(10):
        m = repmod.random_module(exB, seed, 8)
        n1 = repmod.random_module(exB, seed + 40, 8)
        n2 = repmod.random_module(exB, seed + 80, 8)
        lhs = len(repmod.hom_basis(m, repmod.direct_sum([n1, n2])[0]))
        assert lhs == len(repmod.hom_basis(m, n1)) + len(repmod.hom_basis(m, n2))
        lhs = len(repmod.hom_basis(repmod.direct_sum([n1, n2])[0].strip(), m))
        assert lhs == len(repmod.hom_basis(n1, m)) + len(repmod.hom_basis(n2, m))


def test_top_hom_identity(exB):
    # dim top(m) at v equals dim Hom(m, S_v)
    for seed in range(15):
        m = repmod.random_module(exB, seed, 9)
        top = repmod.top(m)
        for v in exB.quiver.vertices:
            assert top.dims[v] == len(repmod.hom_basis(m, repmod.simple(exB, v)))


def test_operations_stay_bound(exB):
    for seed in range(10):
        m = repmod.random_module(exB, seed, 10)
        for n in (repmod.radical(m)[0], repmod.socle(m)[0], repmod.top(m)):
            assert repmod.validate(n) is None


def test_module_json_roundtrip(exB):
    m = repmod.random_module(exB, 5, 9)
    back = repmod.Rep.from_json(exB, m.to_json())
    assert back.equals(m)
    with pytest.raises(ValueError):
        repmod.Rep.from_json(exB, {"algebra": "somewhere-else", "dims": {}, "maps": {}})


def test_module_json_reduces_entries_mod_p(exB):
    # P1 with its entries shifted by multiples of p, either way
    p1 = exB.projective("1")
    shift = exB.p * np.array([[-1, 2], [3, -4]])
    shifted = {a: (mat + shift[:mat.shape[0], :mat.shape[1]]).tolist()
               for a, mat in p1.mats.items() if mat.size}
    assert any(x < 0 for mat in shifted.values() for row in mat for x in row)
    assert any(x >= exB.p for mat in shifted.values() for row in mat for x in row)
    back = repmod.Rep.from_json(exB, {"dims": p1.dims, "maps": shifted})
    assert back.equals(p1)
    for a, mat in back.mats.items():
        assert mat.dtype == np.int64 and mat.ndim == 2 and not mat.flags.writeable
        assert ((0 <= mat) & (mat < exB.p)).all(), a


def test_module_json_takes_nested_lists_and_empty_blocks(exB):
    s1 = repmod.simple(exB, "1")
    back = repmod.Rep.from_json(exB, {"dims": {"1": 1}, "maps": {"bb1": [[0]], "b1": [],
                                                                  "b2": [], "bb2": []}})
    assert back.equals(s1)
    assert back.mats["b1"].shape == (1, 0) and back.mats["b2"].shape == (0, 1)
    assert repmod.Rep.from_json(exB, {"dims": {"1": 1}, "maps": {"b1": [[]]}}).equals(s1)


def test_contract_paths_make_no_coercion(monkeypatch):
    # random_module, decompose and phi build every matrix from contract
    # matrices, so none goes through ef.as_matrix (only Rep.from_json does)
    calls = []
    as_matrix = ef.as_matrix
    monkeypatch.setattr(ef, "as_matrix", lambda *a, **k: calls.append(a) or as_matrix(*a, **k))
    for name in FIXTURES:
        alg = cli.underlying_algebra(cli.load_any(name))
        for seed in range(2):
            m = repmod.random_module(alg, seed, 8)
            decomp.decompose(m)
            grothendieck.phi(m, DEFAULT)
    assert calls == []


@pytest.mark.parametrize("p", [3, 101])
def test_random_module_hands_quotient_contract_rows(p, monkeypatch):
    # the image rows are sums of products below p**2: random_module reduces
    # them, as quotient takes rows as given
    quotient, seen = repmod.quotient, []

    def checked(m, rows):
        for r in rows.values():
            assert r.dtype == np.int64 and r.ndim == 2 and ((0 <= r) & (r < p)).all()
            seen.append(r.size)
        return quotient(m, rows)

    monkeypatch.setattr(repmod, "quotient", checked)
    for name in FIXTURES:
        alg = cli.underlying_algebra(cli.load_any(name, p))
        for seed in range(3):
            repmod.random_module(alg, seed, 10)
    assert sum(seen)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_submodule_and_quotient_agree_on_stability(p):
    # seeded random row sets, and redundant spanning rows of the submodules
    # they generate: submodule and quotient raise NotASubmodule on the same
    # inputs, and otherwise their dimensions add up to m's at every vertex
    rng = np.random.default_rng(p)
    raised = kept = 0
    for name in FIXTURES:
        alg = cli.underlying_algebra(cli.load_any(name, p))
        for seed in range(3):
            m = repmod.random_module(alg, seed, 8)
            for trial in range(6):
                rows = {v: rng.integers(0, p, size=(int(rng.integers(0, d + 1)), d))
                        for v, d in m.dims.items()}
                if trial % 2:
                    _, inc = repmod.generated_submodule(m, rows)
                    rows = {v: np.concatenate([b, rng.integers(0, p, (1, b.shape[0])) @ b % p])
                            for v, b in inc.mats.items()}
                try:
                    sub, _ = repmod.submodule(m, rows)
                except repmod.NotASubmodule:
                    with pytest.raises(repmod.NotASubmodule):
                        repmod.quotient(m, rows)
                    raised += 1
                    continue
                q = repmod.quotient(m, rows)
                assert repmod.validate(q) is None
                assert all(sub.dims[v] + q.dims[v] == m.dims[v] for v in m.dims)
                kept += 1
    assert raised > 10 and kept > 10


def test_repmap_takes_contract_matrices_as_given(a2):
    p1, s1 = a2.projective("1"), repmod.simple(a2, "1")
    mat = ef.eye(1)
    f = repmod.RepMap(p1, s1, {"1": mat})
    assert _is_hom(f)
    assert f.mats["1"] is mat and not mat.flags.writeable
    assert f.mats["2"].shape == (1, 0)
    with pytest.raises(ValueError, match="map shape"):
        repmod.RepMap(p1, s1, {"1": ef.zeros(1, 2)})


def test_combine_maps_is_the_linear_combination(exB, a2):
    rng = np.random.default_rng(6)
    for m in (repmod.direct_sum([exB.projective("1"), repmod.simple(exB, "1")])[0],
              repmod.power(repmod.simple(a2, "1"), 2)):
        p = m.algebra.p
        homs = repmod.hom_basis(m, m)
        for coeffs in ([0] * len(homs), list(range(len(homs))),
                       rng.integers(-3 * p, 3 * p, size=len(homs))):
            f = repmod.combine_maps(homs, coeffs)
            for v in m.dims:
                want = ef.zeros(m.dims[v], m.dims[v])
                for c, h in zip(coeffs, homs):
                    want = (want + int(c) * h.mats[v]) % p
                assert np.array_equal(f.mats[v], want)
