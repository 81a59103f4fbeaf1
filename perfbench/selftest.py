"""Self-tests of the benchmark's own arithmetic and wrapping.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite (the file name does not match
test_*.py) so the tier-1 run does not change.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import unittest

import tracer
from stats import percentile, quartile_spread, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [11, 12] is a root
        names = ["a", "b", "c", "d", "e"]
        starts = [0.0, 1.0, 5.0, 6.0, 11.0]
        ends = [10.0, 4.0, 9.0, 8.0, 12.0]
        parents = [-1, 0, 0, 2, -1]
        got = tracer.self_times(names, starts, ends, parents)
        self.assertEqual(got, {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0, "e": 1.0})

    def test_same_name_nesting_counts_once(self):
        # load_any -> load_glue_file -> load_algebra_file all record as one name
        got = tracer.self_times(["L", "L", "L"], [0.0, 1.0, 2.0], [10.0, 9.0, 3.0], [-1, 0, 1])
        self.assertEqual(got, {"L": 10.0})

    def test_tracer_records_parents(self):
        t = tracer.Tracer()
        inner = t.spanned("inner", lambda: None)
        outer = t.spanned("outer", lambda: inner())
        outer()
        inner()
        self.assertEqual([t.names[i] for i in t.span_name], ["outer", "inner", "inner"])
        self.assertEqual(list(t.span_parent), [-1, 0, -1])
        calls, own = t.span_totals()
        self.assertEqual(calls, {"outer": 1, "inner": 2})
        total = sum(e - s for s, e, p in zip(t.span_start, t.span_end, t.span_parent) if p < 0)
        self.assertAlmostEqual(sum(own.values()), total, places=12)


class TailRule(unittest.TestCase):
    def beyond(self, n, q):
        return n - math.ceil(q * n / 100)

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(20, 2000):
            q = tail_percentile(n)
            self.assertGreaterEqual(self.beyond(n, q), 10, n)
            if q < 100:
                self.assertLess(self.beyond(n, q + 1), 10, n)

    def test_known_counts(self):
        self.assertEqual(tail_percentile(96), 89)
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(tail_percentile(1000), 99)
        self.assertEqual(tail_percentile(20), 50)

    def test_small_samples_report_the_maximum(self):
        for n in (1, 8, 15, 19):
            self.assertEqual(tail_percentile(n), 100)
        self.assertEqual(percentile([3.0, 1.0, 2.0], 100), 3.0)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(percentile(xs, 90), 90)
        self.assertEqual(percentile(xs, 50), 50)

    def test_quartile_spread_matches_statistics(self):
        vals = [1.0, 2.0, 4.0, 4.5, 5.0, 9.0, 9.5, 10.0, 11.0, 30.0]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        self.assertEqual(quartile_spread(vals), (q3 - q1) / med)


class Typical(unittest.TestCase):
    def test_family_mix_does_not_move_it(self):
        from run import typical

        a = typical([1.0, 1.0, 1.0, 4.0], ["x", "x", "x", "y"])
        b = typical([1.0, 4.0, 4.0, 4.0], ["x", "y", "y", "y"])
        self.assertAlmostEqual(a, 2.0)
        self.assertAlmostEqual(b, 2.0)

    def test_geometric_mean_within_a_family(self):
        from run import typical

        self.assertAlmostEqual(typical([1.0, 100.0], ["x", "x"]), 10.0)
        self.assertAlmostEqual(typical([1.0, 100.0, 8.0], ["x", "x", "y"]), math.sqrt(80.0))


class Buckets(unittest.TestCase):
    def test_rref_row_boundaries(self):
        edges = {0: "r0-1", 1: "r0-1", 2: "r2-4", 4: "r2-4", 5: "r5-8", 8: "r5-8",
                 9: "r9-16", 16: "r9-16", 17: "r17-64", 64: "r17-64", 65: "r65up",
                 1000: "r65up"}
        for rows, label in edges.items():
            self.assertEqual(tracer.rref_bucket(rows), label, rows)

    def test_factor_degree_boundaries(self):
        edges = {0: "d1", 1: "d1", 2: "d2", 3: "d3-4", 4: "d3-4", 5: "d5up", 9: "d5up"}
        for degree, label in edges.items():
            self.assertEqual(tracer.factor_bucket(degree), label, degree)


class Wrapping(unittest.TestCase):
    """Installs the tracer on the real package and checks the binding sites."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import quivalg
        from quivalg import verify  # noqa: F401

        cls.q = quivalg
        cls.t = tracer.Tracer()
        tracer.install(cls.t)

    @classmethod
    def tearDownClass(cls):
        cls.t.uninstall()

    def test_reexported_names_are_wrapped(self):
        q = self.q
        for fn in (q.hom_basis, q.decompose, q.phi, q.repmod.hom_basis,
                   q.decomp.is_isomorphic, q.cli.load_any):
            self.assertTrue(hasattr(fn, "__wrapped__"), fn)
        self.assertIs(q.phi, q.grothendieck.phi)
        self.assertIs(q.decompose, q.decomp.decompose)

    def test_builds_through_every_binding_are_counted(self):
        # homology and morita bind build_algebra by name; the span sits on
        # BoundAlgebra.__init__, so every binding and opposite() is seen
        q, t = self.q, self.t
        alg = q.cli.underlying_algebra(q.cli.load_any("a2.alg"))
        before = t.span_totals()[0]["pathalgebra.build"]
        for build in (q.homology.build_algebra, q.morita.build_algebra, q.build_algebra):
            build(alg.quiver, alg.relations, alg.p, alg.m_max)
        alg.opposite()
        self.assertEqual(t.span_totals()[0]["pathalgebra.build"] - before, 4)

    def test_methods_are_wrapped_on_classes(self):
        q = self.q
        for cls, name in ((q.decomp.IsoRegistry, "register"), (q.decomp.EndAlgebra, "__init__"),
                          (q.repmod.RepMap, "is_invertible"),
                          (q.pathalgebra.BoundAlgebra, "opposite"),
                          (q.pathalgebra.BoundAlgebra, "__init__")):
            self.assertTrue(hasattr(cls.__dict__[name], "__wrapped__"), (cls, name))

    def test_per_layer_names_are_produced(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            wanted = {m["name"] for m in json.load(fh)["per_layer"]}
        q, t = self.q, self.t
        alg = q.cli.underlying_algebra(q.cli.load_any("exB.alg"))
        m = q.repmod.random_module(alg, 3, 12)
        q.phi(m)
        q.homology.pd(m)
        produced = set(tracer.layer_metrics(t)) | {"bench.trace_overhead_ratio"}
        # outcome kinds appear once some call returns them
        dynamic = ("grothendieck.phi.cert.", "decomp.iso.yes.", "decomp.iso.no.",
                   "decomp.iso.inconclusive", "homology.pd.finite", "homology.pd.infinite",
                   "homology.pd.unknown")
        missing = {n for n in wanted - produced if not n.startswith(dynamic)}
        self.assertEqual(missing, set())


if __name__ == "__main__":
    unittest.main()
