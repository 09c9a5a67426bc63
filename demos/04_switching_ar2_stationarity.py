#!/usr/bin/env python3
"""Second-order stationarity for switching AR(2) models.

A sufficient condition: the spectral radius of the second-moment map, a
3K x 3K matrix built from the transition probabilities and the per-regime
companion matrices, stays below one.  When all regimes share one companion
matrix the criterion collapses to the familiar single-regime condition.
"""

import numpy as np

import mixprior as mp

# one regime is mildly explosive on its own; whether the chain is stationary
# depends on how long it dwells there
explosive = mp.CompanionMatrix(1.05, 0.0)
tame = mp.CompanionMatrix(0.2, 0.1)

for dwell in (0.05, 0.6, 0.95):
    p = np.array([[dwell, 1.0 - dwell], [0.9, 0.1]])
    problem = mp.StationarityProblem(p=p, regimes=(explosive, tame))
    result = mp.is_stationary_msar2(problem)
    print(f"dwell probability {dwell:.2f} in the explosive regime: "
          f"rho = {result.rho:.4f} -> {'stationary' if result.stationary else 'NOT stationary'}")

# --- collapse to the single-regime condition -------------------------------------
# the verdict takes equal regimes in closed form; the map's own eigensolve
# shows the identity it rests on
phi = mp.CompanionMatrix(0.5, 0.3)
rho_companion = mp.spectral_radius(phi.as_array())
p = np.array([[0.9, 0.1], [0.1, 0.9]])
problem = mp.StationarityProblem(p=p, regimes=(phi, phi))
print()
print(f"equal regimes: map radius {mp.spectral_radius(mp.second_moment_map(problem)):.10f} "
      f"vs companion radius squared {rho_companion**2:.10f}")

# the map itself factorizes in that case, A being the map of one regime
single = mp.second_moment_map(mp.StationarityProblem(p=np.ones((1, 1)), regimes=(phi,)))
print("second-moment map equals kron(P.T, A):",
      bool(np.array_equal(mp.second_moment_map(problem), np.kron(p.T, single))))

# --- prior mass of the stationarity region ---------------------------------------
# rejection sampling from a constrained prior reports its acceptance rate,
# which estimates the prior probability of the stationarity region
from pathlib import Path

model = mp.parse_model((Path(__file__).parent / "models" / "ar2.model").read_text())
draws, rate = mp.sample_constrained_priors(model, 2000, np.random.default_rng(3))
print()
print(f"nested AR(2) prior: acceptance rate of the stationarity sampler = {rate:.3f}")
print(f"first accepted draw: phi1={draws[0].groups['phi1'][0]:+.3f}, "
      f"phi2={draws[0].groups['phi2'][0]:+.3f}")
