"""Rank traces and the certificates behind the Igusa-Todorov function.

Run: python3 demos/demo_phi.py
"""

from quivalg import analysis, cli, grothendieck as gk, repmod

B = cli.load_algebra_file("exB.alg")
s1, s2 = repmod.simple(B, "1"), repmod.simple(B, "2")

# Both simples have the same syzygy class vector, so the trace drops 2 -> 1
# and the closed orbit certifies the value.
both = repmod.direct_sum([s1, s2])[0]
print("phi(S1+S2):", gk.phi(both).describe())

# A single class of infinite projective dimension has phi = 0.
print("phi(S1):  ", gk.phi(s1).describe())

# Finite projective dimension: phi equals pd.
a2 = cli.load_algebra_file("a2.alg")
print("phi(S1) over a2:", gk.phi(repmod.simple(a2, "1")).describe())

# Over a selfinjective algebra the syzygy operator never merges classes.
A = cli.load_algebra_file("exA.alg")
m = repmod.random_module(A, seed=5, size_bound=10)
print("phi(random) over exA:", gk.phi(m).describe())

# The rank trace is monotone and every drop is a certified lower bound.
trace = gk.phi(both).trace
print("rank trace:", trace)

# phi-dimension over a finite set of modules.
r = gk.phi_dim_over([s1, s2, both])
print("phidim over {S1, S2, S1+S2}:", r.value, r.status)

# Additivity of the phi-zero class characterizes selfinjective-or-gldim-finite.
for name in ("a2.alg", "exA.alg", "exB.alg"):
    alg = cli.load_algebra_file(name)
    print(name, "->", analysis.phi_zero_probe(alg).describe())
