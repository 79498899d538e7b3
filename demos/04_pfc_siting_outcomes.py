"""The three siting outcomes, one bundled case each, plus a capped case.

* parallel_paths: the overload fully clears with a ~28% increase on the
  overloaded line itself, pushing flow to a corridor with headroom.
* side_effect: the target can be cleared, but only by overloading an
  already-tight neighbour, so the outcome stays partial.
* radial_feed: with the contingency applied there is no parallel path at
  all, and no reactance change moves a single megawatt.
* capped_relief: the allowed 40% increase clears the low-demand half of
  the overloaded hours and falls short on the high-demand half.
"""

from pfcplan import cases
from pfcplan.dcflow import build_system
from pfcplan.dispatch import injection_matrix, run_year
from pfcplan.screening import stage1_scan, stage2_scan
from pfcplan.shift_factors import compute_lodf, compute_ptdf
from pfcplan.siting import assess_target, pair_table, rank_targets


def study(case):
    model = case.model
    year = run_year(model, case.profile, case.availability, case.snsp_cap)
    system = build_system(model)
    _, base = stage1_scan(year, model, system, case.profile, case.calendar)
    ptdf = compute_ptdf(system, model)
    lodf = compute_lodf(ptdf, model)
    records = stage2_scan(base, lodf, model, case.calendar)
    injections = injection_matrix(model, year, case.profile)
    table = pair_table(records, model, injections, case.calendar, ptdf, lodf)
    return [assess_target(t, table) for t in sorted(table.spans)]


all_outcomes = []
for case in (
    cases.parallel_paths_case(),
    cases.side_effect_case(),
    cases.radial_feed_case(),
    cases.capped_relief_case(),
):
    outcomes = study(case)
    all_outcomes.extend(outcomes)
    print(f"=== {case.name} ===")
    for o in outcomes:
        print(f"  target {o.target_line}: {o.classification}")
        if o.pfc_line is not None:
            print(f"    device on {o.pfc_line}, reactance +{o.delta_pct:.1f}%")
        print(f"    overloaded {o.overload_hours} h, resolved {o.resolved_hours} h "
              f"({100 * o.resolved_fraction:.0f}%)")
        if o.side_effect_lines:
            print(f"    side effects on: {', '.join(o.side_effect_lines)}")
    print()

print("=== deployment ranking across all four cases ===")
ranking = rank_targets(all_outcomes)
for e in ranking:
    delta = f"{e.delta_pct:5.1f}%" if e.delta_pct is not None else "    --"
    print(f"  {e.rank}. {e.target_line:6} {e.classification:18} "
          f"{e.overload_hours:5d} h  resolved {100 * e.resolved_fraction:5.1f}%  "
          f"delta {delta}")
