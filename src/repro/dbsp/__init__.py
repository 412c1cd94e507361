"""The Decomposable BSP (D-BSP) model of De la Torre and Kruskal [19].

A ``D-BSP(v, mu, g(x))`` is a collection of ``v`` processors (``v`` a power
of two), each with a local memory of ``mu`` words, communicating through a
router.  For every ``0 <= i <= log v`` the processors are partitioned into
``2^i`` fixed *i-clusters* of ``v / 2^i`` consecutive processors, forming a
binary decomposition tree.  Programs are sequences of labeled supersteps:
in an *i-superstep* every processor computes locally and exchanges messages
only within its i-cluster; the superstep costs ``tau + h * g(mu v / 2^i)``
where ``tau`` bounds local computation and the messages form an h-relation.
"""

from repro.dbsp.cluster import (
    ClusterTree,
    cluster_of,
    cluster_range,
    cluster_size,
    same_cluster,
)
from repro.dbsp.program import (Message, ProcView, Program, Superstep,
                                concat_programs)
from repro.dbsp.machine import (DBSPMachine, DBSPRunResult, slowdown_ratio,
                                superstep_cost)

__all__ = [
    "ClusterTree",
    "cluster_of",
    "cluster_range",
    "cluster_size",
    "same_cluster",
    "Message",
    "ProcView",
    "Program",
    "Superstep",
    "concat_programs",
    "DBSPMachine",
    "DBSPRunResult",
    "slowdown_ratio",
    "superstep_cost",
]
