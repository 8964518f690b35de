"""Ideal quantum walk on an 8-cycle.

The register holds one qubit per lattice vertex; the walker is a single
excitation.  One time step applies sqrt(iSWAP) on the even bonds, then on
the odd bonds.  Starting from a symmetric superposition on the bond
(3, 4), the excitation spreads ballistically and interferes with itself
once it wraps around.
"""

import numpy as np

from qcawalk import LEAKAGE, InitSpec, Lattice, WalkConfig, run_walk, tessellations_for

lattice = Lattice("cycle", 8)

print("tessellation cover of the 8-cycle:")
for tess in tessellations_for(lattice):
    print(f"  {tess.label}: {tess.pairs}")
print()

config = WalkConfig(
    lattice,
    steps=8,
    init=InitSpec("symmetric", 3),  # (|3> + |4>)/sqrt(2)
    shots=10000,
    seed=7,
)
result = run_walk(config)

print("exact vertex distribution per step (rows: steps, cols: vertices):")
header = "step | " + " ".join(f"v{v:<5d}" for v in range(8))
print(header)
print("-" * len(header))
# result.exact holds every step: probs[t, v] is vertex v at step t, and
# the last column is leakage
vertex_probs = result.exact.probs[:, :8]
for t, probs in enumerate(vertex_probs):
    row = " ".join(f"{p:.4f}" for p in probs)
    print(f"{t:4d} | {row}")

print()
print("sampled counts at the final step (10000 shots):")
final_counts = result.empirical[-1].counts
print({v: int(final_counts[v]) for v in range(8)})
print()
print(f"leakage stays at zero under ideal evolution: "
      f"max={result.exact.get(LEAKAGE).max():.2e}")

# the distribution is mirror-symmetric about the starting bond at every step
mirror = (7 - np.arange(8)) % 8
assert np.abs(vertex_probs - vertex_probs[:, mirror]).max() < 1e-12
print("reflection symmetry about the (3,4) bond holds at every step")
