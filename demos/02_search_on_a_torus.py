"""Quantum walk search on a 4x4 torus.

Search runs from the uniform one-particle superposition.  Pairs touching
the marked vertex keep the walk angle pi/4 (sqrt(iSWAP)); every other
pair applies iSWAP followed by RZ(-pi/2) on both qubits.  In the
one-particle picture the unmarked bonds then simply transport amplitude
while the marked bonds act as a beam splitter, which concentrates
probability on the marked vertex after a couple of steps.
"""

from qcawalk import (
    InitSpec,
    Lattice,
    WalkConfig,
    hitting_time,
    run_walk,
    selectivity,
    success_probability,
)

lattice = Lattice("torus", 4)
marked = lattice.vertex_id(3, 0)
print(f"marked vertex (3, 0) -> id {marked} on the {lattice.vertex_count}-vertex torus")

config = WalkConfig(
    lattice,
    steps=10,
    init=InitSpec("search_uniform"),
    marked=marked,
    shots=10000,
    seed=11,
)
result = run_walk(config)

print("\nstep  P(marked)  selectivity")
series = zip(result.exact.get(marked), selectivity(result.exact, marked))
for t, (p_marked, sel) in enumerate(series):
    print(f"{t:4d}  {p_marked:9.4f}  {sel:+8.3f}")

peak, step = success_probability(result.exact, marked)
print(f"\nsuccess probability {peak:.4f}, hit at step {hitting_time(result.exact, marked)}")
print("(uniform start would give 1/16 = 0.0625)")

# the same search on cycles, for the size scaling
print("\ncycle search sweep (marked vertex 2, 50-step horizon):")
for n in (4, 8, 16):
    cyc = Lattice("cycle", n)
    res = run_walk(WalkConfig(cyc, steps=50, init=InitSpec("search_uniform"),
                              marked=2, seed=11))
    p, s = success_probability(res.exact, 2)
    print(f"  N={n:2d}: peak={p:.4f} at step {s}")
