"""Walk through the DC engine on the hand-solvable triangle network.

A 90 MW transfer across a three-bus loop splits by the current divider,
so every number printed here can be checked on paper: 60 MW takes the
direct line, 30 MW the two-line detour. The shift factors then predict
the N-1 redistribution without re-solving, and we verify them against an
exact solve with the line removed.
"""

import numpy as np

from pfcplan import cases, dcflow, shift_factors

model = cases.triangle()
system = dcflow.build_system(model)

print("=== intact network ===")
injections = np.array([90.0, 0.0, -90.0])  # bus order B1, B2, B3
solution = dcflow.solve_flows(system, injections)
for line_id, flow in zip(solution.line_ids, solution.flows_mw):
    print(f"  {line_id}: {flow:7.2f} MW")

print("\n=== shift factors (topology-only) ===")
ptdf = shift_factors.compute_ptdf(system, model)
print(f"  PTDF(L13 <- inject B1) = {ptdf.entry('L13', 'B1'):.4f}   (2/3)")
print(f"  PTDF(L12 <- inject B1) = {ptdf.entry('L12', 'B1'):.4f}   (1/3)")
lodf = shift_factors.compute_lodf(ptdf, model)
print(f"  LODF(L12 | L13 out)   = {lodf.entry('L12', 'L13'):.4f}   (all of it)")

print("\n=== losing L13: superposition vs exact re-solve ===")
k = lodf.line_ids.index("L13")
# each line gains LODF(l, k) times the lost line's flow; L13 itself carries none
predicted = solution.flows_mw + lodf.matrix[:, k] * solution.flows_mw[k]
predicted[k] = 0.0
exact = dcflow.solve_with_outage(model, injections, "L13")
print(f"  {'line':6} {'LODF':>9} {'exact':>9}")
for i, line_id in enumerate(solution.line_ids):
    print(f"  {line_id:6} {predicted[i]:9.3f} {exact.flows_mw[i]:9.3f}")
worst = np.abs(predicted - exact.flows_mw).max()
print(f"  worst disagreement: {worst:.2e} MW")

print("\n=== a bridge cannot be bypassed ===")
pair = cases.radial_pair()
pair_lodf = shift_factors.compute_lodf(
    shift_factors.compute_ptdf(dcflow.build_system(pair), pair), pair
)
print(f"  radial pair line L1 islanding-marked: {pair_lodf.is_islanding('L1')}")
