"""Communication skeletons of the paper's benchmark applications.

The paper evaluates message predictability on NAS BT, CG, LU, IS and the
ASCI Sweep3D code (class A problem size, 4-32 processes).  The real codes are
Fortran/C programs; what the predictor sees, however, is only the sequence of
(sender, size) pairs each process receives.  Each module here implements a
*communication skeleton*: a rank program that issues the same communication
pattern as the original application (same process topology, same neighbour
relations, same per-iteration message sequence, message sizes of the same
order), with computation modelled as virtual time.

* :mod:`repro.workloads.bt` — NAS BT, multi-partition ADI solver.
* :mod:`repro.workloads.cg` — NAS CG, conjugate gradient on a 2D process grid.
* :mod:`repro.workloads.lu` — NAS LU, SSOR solver with pipelined wavefronts.
* :mod:`repro.workloads.is_sort` — NAS IS, bucket sort dominated by
  collectives.
* :mod:`repro.workloads.sweep3d` — ASCI Sweep3D, 8-octant wavefront sweeps.
* :mod:`repro.workloads.synthetic` — synthetic streams/workloads for tests
  and ablations.
* :mod:`repro.workloads.compile` — the op-array fast lane: statically
  scheduled rank programs are replayed once into flat typed op lanes that
  the engine consumes without per-op generator resumptions; dynamic
  programs keep the generator protocol.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "base.Workload",
        "base.WorkloadDescription",
        "bt.BTWorkload",
        "cg.CGWorkload",
        "lu.LUWorkload",
        "is_sort.ISWorkload",
        "sweep3d.Sweep3DWorkload",
        "synthetic.PeriodicPatternWorkload",
        "synthetic.RingExchangeWorkload",
        "synthetic.RandomSenderWorkload",
        "synthetic.CollectiveStormWorkload",
        "registry.WORKLOAD_CLASSES",
        "registry.create_workload",
        "registry.paper_configurations",
        "registry.workload_names",
    ],
)
