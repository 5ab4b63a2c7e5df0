"""A small MPI-like library ("simMPI") running on the discrete-event simulator.

The package mirrors the structure of a real MPI implementation:

* :mod:`repro.mpi.constants` — wildcard constants and reserved tag spaces.
* :mod:`repro.mpi.ops` — the operation objects rank programs ``yield`` to the
  engine (send/isend/recv/irecv/wait/waitall/compute).
* :mod:`repro.mpi.request` — non-blocking request handles and receive
  statuses.
* :mod:`repro.mpi.communicator` — the application-facing API; collective
  operations are generator methods used with ``yield from`` and decompose
  into point-to-point messages exactly like MPICH's collective algorithms.
* :mod:`repro.mpi.collectives` — the collective algorithms themselves
  (binomial trees, recursive doubling, pairwise exchange, dissemination
  barrier).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "constants.ANY_SOURCE",
        "constants.ANY_TAG",
        "constants.MAX_USER_TAG",
        "constants.COLLECTIVE_TAG_BASE",
        "constants.KIND_P2P",
        "constants.KIND_COLLECTIVE",
        "ops.Operation",
        "ops.SendOp",
        "ops.IsendOp",
        "ops.RecvOp",
        "ops.IrecvOp",
        "ops.WaitOp",
        "ops.WaitallOp",
        "ops.ComputeOp",
        "request.Request",
        "request.Status",
        "communicator.Communicator",
        "communicator.RankContext",
    ],
)
