"""Graph matching substrate used by the RAIDP recovery planner.

Section 3.3 of the paper frames post-failure re-replication as a matching
problem: *sender* disks holding now-unique superchunks must each be paired
with a *receiver* disk such that 1-sharing is preserved and no receiver
takes more than one superchunk, optionally minimizing disk load.  The
paper points at maximum matchings (Hopcroft-Karp) and min-cost assignment
(the Hungarian algorithm).  We implement both from scratch:

- :mod:`repro.matching.hopcroft_karp` -- O(E sqrt(V)) maximum bipartite
  matching.
- :mod:`repro.matching.hungarian` -- O(n^2 m) Kuhn-Munkres min-cost
  assignment with forbidden edges and rectangular problems, one cold
  solve per call.
"""

from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import assign

__all__ = ["assign", "hopcroft_karp"]
