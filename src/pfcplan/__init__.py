"""Transmission planning toolkit for siting series-reactance power flow
controllers: a year of hourly DC load flows, N-1 screening via shift factors,
and reactance-perturbation siting that classifies every overload as fully
resolved, partially resolved, or unresolvable.

The package root holds the four names of the library quick start; everything
else is imported from its module (``pfcplan.cases``, ``pfcplan.siting``, ...).
"""

from .dcflow import build_system, solve_flows
from .shift_factors import compute_lodf, compute_ptdf

__version__ = "0.1.0"

__all__ = ["build_system", "solve_flows", "compute_ptdf", "compute_lodf"]
