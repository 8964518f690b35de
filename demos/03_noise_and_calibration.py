"""Noisy backends: rate calibration, channel checks, fidelity decay.

The emulated processor publishes average gate fidelities, not rates, so
the relaxation/dephasing pair (K, delta) is fitted to reproduce them.
Each gate then becomes a CPTP channel by integrating the master equation
over the gate time; the density backend composes those channels exactly,
and the trajectory backend samples Kraus branches per gate so its
ensemble mean matches the density evolution.
"""

import math

import numpy as np

from qcawalk import (
    LEAKAGE,
    GateSpec,
    InitSpec,
    Lattice,
    WalkBackend,
    WalkConfig,
    average_gate_fidelity,
    calibrate_rates,
    hellinger_fidelity,
    l1_distance,
    noisy_gate_channel,
    run_walk,
)

print("fitting rates to the native gate fidelities...")
calibration = calibrate_rates()
print(calibration.summary())
model = calibration.model
print(f"\nT1 = 1/K = {1e6 / model.relaxation_rate:.1f} us at "
      f"coupling {model.coupling:.3e} rad/s")

ch = noisy_gate_channel(GateSpec("XY", math.pi / 4, (0, 1)), model)
print(f"\nsqrt(iSWAP) channel: {len(ch.kraus)} Kraus operators, "
      f"trace defect {ch.trace_defect():.1e}, "
      f"F_avg = {average_gate_fidelity(ch):.6f}")

# noisy-vs-ideal fidelity on the 8-cycle walk (exact density evolution)
lattice = Lattice("cycle", 8)
steps = 30
ideal = run_walk(WalkConfig(lattice, steps=steps, init=InitSpec("symmetric", 3), seed=5))
noisy = run_walk(WalkConfig(lattice, steps=steps, init=InitSpec("symmetric", 3), seed=5,
                            backend=WalkBackend("density")), noise=model)

# each metric takes the whole run and gives one value per step
fidelity = hellinger_fidelity(ideal.exact, noisy.exact)
l1 = l1_distance(ideal.exact, noisy.exact)
leakage = noisy.exact.get(LEAKAGE)
print("\nstep  hellinger_fidelity  l1_distance  leakage")
for t in range(0, steps + 1, 5):
    print(f"{t:4d}  {fidelity[t]:18.4f}  {l1[t]:11.4f}  {leakage[t]:.4f}")

# cross-check: trajectory unravelling against the density diagonal
traj = run_walk(WalkConfig(lattice, steps=steps, init=InitSpec("symmetric", 3), seed=5,
                           backend=WalkBackend("trajectories", n_trajectories=4000)),
                noise=model)
err = l1_distance(noisy.exact, traj.exact)[steps]
print(f"\ntrajectories (4000) vs density at step {steps}: l1 = {err:.4f}")
