"""Gluing two algebras, the syzygy-splitting lemma, and the witness pair.

Run: python3 demos/demo_gluing.py
"""

from quivalg import analysis, cli, decomp, homology, morita, repmod

# One extra vertex glued into the local three-loop block by a single connector.
c = cli.load_glue_file("remark54.glue")
alg = c.algebra
print(alg, "flags:", c.flags)

# The syzygy of the new simple is the projective of the block.
om = homology.syzygy(repmod.simple(alg, "v"))
print("Omega(S_v) ~ P0:", decomp.is_isomorphic(om, alg.projective("0")).verdict)

# Syzygies of glued modules split into one-sided parts: every connector acts
# as zero on the radical of every projective, and Omega(M) lies in rad P0(M).
hit = morita.nonzero_on_radicals(alg, c.spec.alphas + c.spec.betas)
print("syzygy split for every module:",
      "yes" if hit is None else f"no, connector {hit[1]} on rad P_{hit[0]}")
for seed in range(3):
    m = repmod.random_module(alg, seed, 12)
    rep = morita.verify_syzygy_split(c, m)
    print(f"random module {seed}: split={rep.ok}, A-part {rep.a_dims}, "
          f"B-part {rep.b_dims}")

# The orbit hypothesis in both seedings.
for variant in ("boundary", "full"):
    h = morita.check_h4(c, variant=variant)
    print(f"H4 ({variant}):", h.status)

# gldim is infinite but the algebra is not selfinjective, so the phi-zero
# class cannot be additive: the probe constructs a certified witness pair.
verdict = analysis.phi_zero_probe(alg)
print(verdict.describe())
print("phi(M1+M2):", verdict.phi12.describe())

# The same verdict class holds on the opposite algebra.
print("opposite:", analysis.phi_zero_probe(alg.opposite()).describe())

# A syzygy-finite gluing: both sides and the glued algebra close.
pair = cli.load_glue_file("rad-square-zero-pair.glue")
probe = homology.syzygy_finite_probe(pair.algebra, 2)
print("rad-square-zero pair, glued orbit closed:", probe.closed)
report = morita.classify_gluing(pair)
for entry in report.entries:
    print("-", entry.proposition + ":", entry.conclusion)
