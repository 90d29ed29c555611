"""Analytic models: cost, design space, and the Table 1 property matrix.

- :mod:`repro.analysis.scheme` -- the one description of a redundancy
  scheme (what it stores, tolerates and reads on repair, and its rung of
  the analytic MTTDL ladder) that everything below except ``cost`` reads.
- :mod:`repro.analysis.design_space` -- Fig. 1's storage-efficiency vs
  repair-efficiency plane.
- :mod:`repro.analysis.properties` -- derives Table 1's +/-/± matrix from
  quantitative mini-models instead of hand-waving.
- :mod:`repro.analysis.cost` -- the Section 4 feasibility and TCO study
  (Lstor bill of materials, derived disk costs, Fig. 7 breakdown).
- :mod:`repro.analysis.montecarlo` -- the long-horizon fleet durability
  engine (Weibull lifetimes, latent sector errors, correlated bursts).
"""

from repro.analysis.cost import DatacenterCostModel, LstorBom, ServerExample
from repro.analysis.design_space import DesignPoint, design_space_points
from repro.analysis.montecarlo import (
    DurabilityEngine,
    Fleet,
    SchemeReport,
)
from repro.analysis.properties import Rating, property_matrix
from repro.analysis.scheme import Scheme, default_schemes

__all__ = [
    "DatacenterCostModel",
    "DesignPoint",
    "DurabilityEngine",
    "Fleet",
    "LstorBom",
    "Rating",
    "Scheme",
    "SchemeReport",
    "ServerExample",
    "default_schemes",
    "design_space_points",
    "property_matrix",
]
