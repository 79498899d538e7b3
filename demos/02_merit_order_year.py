"""Dispatch a study year on the six-bus mesh and look at the SNSP cap.

Wind is dispatched first at whatever the hour's availability allows, but
never beyond the non-synchronous penetration cap; thermal units then fill
the rest in marginal-cost order. Tightening the cap can only increase
curtailment, which the sweep at the end makes visible.
"""

from pfcplan import cases
from pfcplan.dispatch import merit_order_dispatch, run_year

case = cases.mesh6_case()
model = case.model

print("=== one hour in detail ===")
hour = merit_order_dispatch(model, demand_mw=250.0, res_factors={"W1": 0.9},
                            snsp_cap=case.snsp_cap)
for gid, output in zip(model.generator_ids, hour.outputs_mw):
    gen = model.generator_by_id[gid]
    print(f"  {gid} ({gen.kind:7}, srmc {gen.srmc:5.1f}): {output:7.2f} MW")
print(f"  demand 250.00, balance error {abs(hour.outputs_mw.sum() - 250):.2e} MW")
print(f"  SNSP {hour.snsp:.3f} (cap {case.snsp_cap}), curtailed {hour.curtailed_mw:.1f} MW")

print("\n=== the full 8,760-hour year ===")
year = run_year(model, case.profile, case.availability, case.snsp_cap)
snsp, curtailed = year.snsp, year.curtailed_mw
print(f"  feasible hours: {len(year.feasible_hours)}")
print(f"  SNSP: mean {snsp.mean():.3f}, max {snsp.max():.3f}")
print(f"  hours at the cap: {(snsp > case.snsp_cap - 1e-9).sum()}")
print(f"  total curtailment: {curtailed.sum():,.0f} MWh")

print("\n=== curtailment vs cap (monotone) ===")
for cap in (0.3, 0.5, 0.65, 0.8, 1.0):
    h = merit_order_dispatch(model, 250.0, {"W1": 0.9}, snsp_cap=cap)
    print(f"  cap {cap:4.2f}: wind {h.outputs_mw[-1]:6.2f} MW, "
          f"curtailed {h.curtailed_mw:6.2f} MW")
