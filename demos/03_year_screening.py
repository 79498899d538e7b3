"""Screen a 30-bus grid across a full year: intact scan, then N-1.

The point of the shift-factor shortcut is visible in the timings: the
8,760 intact solves share one factorization, and the entire year of
contingency analysis is a handful of matrix passes rather than
8,760 x 41 re-solves.
"""

import time

from pfcplan import cases
from pfcplan.dcflow import build_system
from pfcplan.dispatch import run_year
from pfcplan.screening import region_counts, stage1_scan, stage2_scan, summarize
from pfcplan.shift_factors import compute_lodf, compute_ptdf

case = cases.grid30_case()
model = case.model
print(f"network: {len(model.buses)} buses, {len(model.in_service_lines)} lines")

year = run_year(model, case.profile, case.availability, case.snsp_cap)

start = time.perf_counter()
system = build_system(model)
stage1_records, base = stage1_scan(
    year, model, system, case.profile, case.calendar
)
t_stage1 = time.perf_counter() - start
print(f"\nstage 1 (intact, {len(base.hours)} hours): "
      f"{len(stage1_records)} records in {t_stage1:.2f}s")

start = time.perf_counter()
ptdf = compute_ptdf(system, model)
lodf = compute_lodf(ptdf, model)
records = stage2_scan(base, lodf, model, case.calendar)  # intact and N-1 records
t_stage2 = time.perf_counter() - start
n_outages = len(lodf.non_islanding_outages())
print(f"stage 2 ({n_outages} outages x {len(base.hours)} hours): "
      f"{len(records) - len(stage1_records)} records in {t_stage2:.2f}s")

summaries = summarize(records, model)

print("\noverloaded lines by region:")
for count in region_counts(summaries):
    print(f"  {count.region:10} {count.overloaded_lines}")

print("\nduration and severity of the overloaded lines:")
print(f"  {'line':10} {'hours':>6} {'max %':>7} {'MWh over':>9} {'outages':>8}")
for s in summaries:
    if s.overload_hours:
        print(f"  {s.line_id:10} {s.overload_hours:6d} {s.max_loading_pct:7.1f} "
              f"{s.overload_energy_mwh:9.1f} {s.contingency_count:8d}")
