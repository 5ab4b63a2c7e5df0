"""Compile rank programs into flat op arrays (the workload fast lane).

The generator protocol resumes a Python generator once per operation; for
statically scheduled workloads (all of the paper's benchmarks) that
resumption — plus the operation-object allocation and communicator argument
validation behind it — is pure overhead repeated for every message.  This
module removes it by *replaying* a rank program once, at compile time,
and recording the operations it yields into the typed lanes of
:class:`repro.mpi.ops.OpArrays`.  The engine then drives the lanes directly
(:meth:`repro.sim.engine.Simulator._step_compiled`), falling back to the
generator protocol for programs that stay dynamic.

Deriving the schedule from the program itself (rather than from a separate
per-skeleton emitter) makes drift between the two protocols impossible by
construction; the equivalence property tests in
``tests/test_workloads_oparray_equivalence.py`` assert bit-identical
simulation outputs across the full registry under all four flow-control
policies.

What makes a program compilable
-------------------------------
The replay drives the generator with *inert* stand-ins — fake request
tokens, opaque statuses, and a stub RNG whose compute-noise factors are all
1.0 — so a program is compilable exactly when its operation sequence does
not depend on operation results or random draws:

* any RNG use other than the compute-noise prefetch
  (:meth:`repro.workloads.base.Workload.compute` with
  ``prefetch_compute_noise = True``) marks the program dynamic;
* inspecting a receive status, a request, or a waitall result marks it
  dynamic (the stand-ins raise on any interaction);
* waiting on a *non-contiguous* subset of the outstanding requests marks it
  dynamic: the op-array encoding supports "wait for everything posted so
  far" (``OP_WAITALL``) and "wait for a contiguous slice in posting order"
  (``OP_WAIT`` — what nonblocking-collective composites and partial waitalls
  lower to), but not arbitrary subsets.

Collectives need no support here: a program runs one with ``yield from``,
Python flattens the nested generator, and the replay records the same
point-to-point operations the engine's generator path would execute.  A
nonblocking collective hands the program a
:class:`repro.mpi.request.CollectiveRequest` built over the replay's fake
request tokens; a wait on it is a wait on those tokens.

A dynamic program is not an error: :func:`compile_program` returns ``None``
and the caller runs the generator protocol instead.  Workloads can also opt
out statically via :attr:`repro.workloads.base.Workload.compile_supported`.

Compute-noise (RNG-ordering) caveat
-----------------------------------
Noise factors are *not* baked into the lanes.  The compiled executor draws
them at execution time from the rank RNG in blocks of
:attr:`Workload._NOISE_BLOCK`, exactly like the prefetch in
:meth:`Workload.compute` — which is why compilation requires
``prefetch_compute_noise = True``: under the prefetch, the rank RNG stream
is consumed one block per 128 noisy computes with no interleaved draws, so
the compiled and generator paths consume it bit-identically.  A workload
that draws from ``ctx.rng`` between computes (and therefore sets the flag
False, e.g. :class:`repro.workloads.synthetic.RandomSenderWorkload`) would
see its draws reordered by any precompiled schedule; such workloads always
take the generator path.

Caching
-------
Lanes carry no per-run state, so compiled schedules are cached at module
level keyed by :meth:`Workload.schedule_cache_key` and rank.  Re-running the
same configuration (benchmark rounds, repeated experiment cells in one
process) then skips the replay entirely and the fast lane's full per-op
savings materialise; a cold run still pays one generator traversal to
compile.  The cache is LRU-bounded and very large schedules are not
retained.

The ranks of one SPMD configuration differ mostly in their peers: bt.256's
256 ranks hold only 8 or 9 distinct lanes of each kind but ``a``.  The
cache therefore stores each distinct ``op`` / ``nbytes`` / ``tag`` /
``seconds`` / ``kind`` lane once per configuration and hands every rank
that replays to an identical lane the held list; only ``a`` stays per
rank.  Sharing is sound because a lane is never written after compile
(:class:`~repro.mpi.ops.OpArrays`).  The ``a`` lane a rank keeps is stored
as an ``array`` of the narrowest signed typecode that holds its values
(:func:`_narrowed`): the 404,464 peer slots of bt.256 at four iterations
take two bytes each instead of an eight-byte list pointer, and its cache
holds 1.5 MB instead of 4.1 MB.  :func:`compile_rank_lanes` bypasses the cache and always
returns private lists.
"""

from __future__ import annotations

import marshal
from array import array
from collections import OrderedDict
from operator import is_

from repro.mpi.communicator import Communicator, RankContext
from repro.mpi.ops import (
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    OP_WAITALL,
    CompiledProgram,
    ComputeOp,
    IrecvOp,
    IsendOp,
    OpArrays,
    RecvOp,
    SendOp,
    WaitallOp,
    WaitOp,
)
from repro.mpi.request import CollectiveRequest

__all__ = [
    "NotCompilable",
    "compile_program",
    "compile_rank_lanes",
    "compile_info",
    "clear_schedule_cache",
]


class NotCompilable(Exception):
    """Raised (internally) when a program's schedule turns out to be dynamic."""


class _Opaque:
    """Stand-in for a result value the compiled path will never materialise.

    Any interaction means the program's control flow depends on operation
    results, which the op-array encoding cannot express.  Comparison must be
    refused too: real ``Status`` results compare by value, so two distinct
    statuses handed to one program may be equal or unequal at runtime, while
    every replayed result is this one singleton — an ``==`` branch would
    compile into whichever arm the identity comparison happened to pick.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise NotCompilable("program inspects an operation result")

    __getattr__ = _refuse
    __getitem__ = _refuse
    __iter__ = _refuse
    __len__ = _refuse
    __bool__ = _refuse
    __eq__ = _refuse
    __ne__ = _refuse
    __hash__ = _refuse


_OPAQUE = _Opaque()


class _FakeRequest:
    """Token standing in for a :class:`Request` during compile replay."""

    __slots__ = ()

    def __getattr__(self, name):
        raise NotCompilable("program inspects a request handle")


class _CountingOnes:
    """Iterator of 1.0 noise factors that counts how many were consumed."""

    __slots__ = ("_rng", "_left")

    def __init__(self, rng: "_CompileRNG", n: int) -> None:
        self._rng = rng
        self._left = n

    def __iter__(self):
        return self

    def __next__(self) -> float:
        if self._left <= 0:
            raise StopIteration
        self._left -= 1
        self._rng.noise_draws += 1
        return 1.0


class _CompileRNG:
    """RNG stub handed to programs during compile replay.

    Only the compute-noise prefetch (:meth:`lognormal_block`) is allowed; it
    yields unit factors while counting consumption, so the compiler can tag
    each :class:`ComputeOp` that needs a real factor drawn at execution
    time.  Every other draw makes the schedule data-dependent.
    """

    __slots__ = ("noise_draws",)

    def __init__(self) -> None:
        self.noise_draws = 0

    def lognormal_block(self, sigma: float, n: int) -> _CountingOnes:
        return _CountingOnes(self, n)

    def __getattr__(self, name):
        raise NotCompilable(f"program draws from ctx.rng ({name}) outside the noise prefetch")


def compile_rank_lanes(workload, rank: int) -> OpArrays | None:
    """Replay ``workload``'s program for ``rank`` into op lanes.

    Returns ``None`` when the program is dynamic (see the module docstring
    for what that means); genuine program errors — bad arguments caught by
    the communicator, exceptions in the program body — propagate, exactly as
    they would when the generator path first resumed the program.
    """
    lanes, _reason = _replay(workload, rank)
    return lanes


def _replay(workload, rank: int) -> tuple[OpArrays | None, str | None]:
    """Replay one rank program; returns ``(lanes, None)`` or ``(None, reason)``.

    The reason string names why the schedule stays on the generator path —
    surfaced through :func:`compile_info` the same way the parallel engine's
    fallback reason lands in ``parallel_info``.
    """
    rng = _CompileRNG()
    ctx = RankContext(
        rank=rank,
        size=workload.nprocs,
        comm=Communicator(rank=rank, size=workload.nprocs),
        rng=rng,
    )
    generator = workload.program(ctx)
    if not hasattr(generator, "send"):
        return None, "program factory did not return a generator"
    lanes = OpArrays()
    # The replay costs one generator traversal per cold compile; bound lane
    # appends keep that traversal close to the raw resumption cost.
    op_lane = lanes.op.append
    a_lane = lanes.a.append
    nbytes_lane = lanes.nbytes.append
    tag_lane = lanes.tag.append
    seconds_lane = lanes.seconds.append
    kind_lane = lanes.kind.append
    resume = generator.send
    # Fake request tokens of the outstanding nonblocking ops, in posting
    # order: the compile-time image of the engine's ``cp_pending``.
    pending: list[_FakeRequest] = []
    value = None
    draws_seen = 0
    try:
        while True:
            try:
                operation = resume(value)
            except StopIteration:
                break
            noise_used = rng.noise_draws - draws_seen
            draws_seen = rng.noise_draws
            cls = operation.__class__
            value = None
            if cls is ComputeOp:
                seconds = operation.seconds
                if noise_used > 1 or seconds < 0:
                    raise NotCompilable("irregular compute op")
                op_lane(OP_COMPUTE)
                a_lane(noise_used)
                nbytes_lane(0)
                tag_lane(0)
                seconds_lane(seconds)
                kind_lane(None)
            elif noise_used:
                raise NotCompilable("noise factor consumed outside a compute op")
            elif cls is IsendOp or cls is SendOp:
                op_lane(OP_ISEND if cls is IsendOp else OP_SEND)
                a_lane(operation.dest)
                nbytes_lane(int(operation.nbytes))
                tag_lane(operation.tag)
                seconds_lane(0.0)
                kind_lane(operation.kind)
                if cls is IsendOp:
                    value = _FakeRequest()
                    pending.append(value)
            elif cls is IrecvOp or cls is RecvOp:
                op_lane(OP_IRECV if cls is IrecvOp else OP_RECV)
                a_lane(operation.source)
                nbytes_lane(0)
                tag_lane(operation.tag)
                seconds_lane(0.0)
                kind_lane(operation.kind)
                if cls is IrecvOp:
                    value = _FakeRequest()
                    pending.append(value)
                else:
                    value = _OPAQUE
            elif cls is WaitallOp or cls is WaitOp:
                # A nonblocking-collective composite stands for the tokens
                # of its decomposition.
                waited = [operation.request] if cls is WaitOp else operation.requests
                requests = []
                for request in waited:
                    if isinstance(request, CollectiveRequest):
                        requests.extend(request.requests)
                    else:
                        requests.append(request)
                # The full pending set in posting order is the common case:
                # one identity pass recognises it (``==`` would reach
                # ``_Opaque.__eq__`` and change the fallback reason).
                full = len(requests) == len(pending) and all(map(is_, requests, pending))
                if not full:
                    positions = {id(token): index for index, token in enumerate(pending)}
                    full = len(requests) == len(pending) and {
                        id(request) for request in requests
                    } == set(positions)
                if full:
                    # The full pending set: the classic OP_WAITALL encoding.
                    op_lane(OP_WAITALL)
                    a_lane(len(pending))
                    nbytes_lane(0)
                    tag_lane(0)
                    seconds_lane(0.0)
                    kind_lane(None)
                    pending.clear()
                else:
                    try:
                        covered = sorted(positions[id(request)] for request in requests)
                    except KeyError:
                        raise NotCompilable(
                            "wait on an unknown or already-waited request"
                        ) from None
                    if len(set(covered)) != len(requests):
                        raise NotCompilable("wait lists a request twice")
                    if covered and covered != list(range(covered[0], covered[-1] + 1)):
                        raise NotCompilable(
                            "wait on a non-contiguous subset of pending requests"
                        )
                    start = covered[0] if covered else 0
                    op_lane(OP_WAIT)
                    a_lane(start)
                    nbytes_lane(len(covered))
                    tag_lane(0)
                    seconds_lane(0.0)
                    kind_lane(None)
                    del pending[start : start + len(covered)]
                value = _OPAQUE
            else:
                raise NotCompilable(f"unsupported operation type {cls.__name__}")
    except NotCompilable as exc:
        return None, str(exc)
    finally:
        generator.close()
    if pending:
        # Requests leaked past program end; the generator path would leave
        # them dangling too, but the encoding has no way to express it.
        return None, "requests leaked past program end"
    return lanes, None


# ----------------------------------------------------------------------
# Schedule cache
# ----------------------------------------------------------------------

#: Most-recently-used workload schedules kept alive (one entry covers every
#: compiled rank of one workload configuration).
_CACHE_MAX_KEYS = 16
#: Aggregate budget of lane slots the cache holds: every cached rank's own
#: ``a`` lane plus each distinct shared lane once (see :class:`_Schedules`).
#: ~12.6M slots is 2M unshared six-lane ops: 8 bytes a slot on the five list
#: lanes and 1-2 on a narrowed ``a`` lane (up to 32,767 ranks), ≈ 88 MB of
#: slots worst case.  Least-recently-used configurations are evicted once
#: the budget is crossed, so one full-scale-lu-sized configuration (~10^5
#: ops per rank across 32 ranks) fits while a cache full of them cannot
#: accumulate; a single rank whose six lanes alone exceed the budget is
#: never cached.
_CACHE_MAX_OPS = 6 << 21

#: The lanes ranks of one configuration share; ``a`` (the peer) is per rank.
_SHARED_LANES = ("op", "nbytes", "tag", "seconds", "kind")
#: The value types marshal encodes by exact type.  Anything else (a NumPy
#: scalar, say) it writes as raw buffer bytes, where ``np.float64(0.0)`` and
#: ``np.int64(0)`` look alike, so a lane holding one is never pooled.
_EXACT_TYPES = frozenset({int, float, str, bool, type(None)})


def _narrowed(lane: list) -> array | list:
    """``lane`` as an ``array`` of the narrowest signed typecode that holds it.

    Indexing the array gives back the same ``int`` values; a lane holding
    anything but exact ``int``s (a ``bool``, a NumPy integer) or an int
    beyond 64 bits stays the list it is.
    """
    if set(map(type, lane)) - {int}:
        return lane
    for code in "bhiq":
        try:
            return array(code, lane)
        except OverflowError:  # a value outside the typecode's range
            pass
    return lane


def _same_lane(held: list, lane: list) -> bool:
    """Whether ``lane`` holds the same values with the same types as ``held``.

    ``==`` alone would merge ``0``, ``0.0``, ``-0.0`` and ``False``.  Lanes
    of one configuration mostly hold the very same objects; where they do
    not, version-2 marshal bytes (no back-references, binary floats) decide:
    a pooled lane holds only :data:`_EXACT_TYPES`, and equal bytes then mean
    the same type and the same bits, signed zeros included, in every slot.
    """
    if len(held) != len(lane):
        return False
    if all(map(is_, held, lane)):
        return True
    if held != lane:
        return False
    try:
        return marshal.dumps(held, 2) == marshal.dumps(lane, 2)
    except ValueError:  # ``lane`` holds a value marshal cannot encode
        return False


class _Schedules:
    """One configuration's cache entry: per-rank results and the lane pool.

    ``pool`` maps ``hash(tuple(lane))`` to the distinct lanes of that hash
    already held by some rank of this configuration, so a freshly replayed
    rank swaps each of its ``_SHARED_LANES`` for an identical held list
    instead of keeping its own copy; only the hash is kept, not a second
    copy of the lane.  ``slots`` is what this entry adds to the cache
    budget: every rank's ``a`` lane plus each distinct or private lane once.
    """

    __slots__ = ("ranks", "pool", "slots")

    def __init__(self) -> None:
        self.ranks: dict[int, tuple[OpArrays | None, str | None]] = {}
        self.pool: dict[int, list[list]] = {}
        self.slots = 0

    def share(self, lanes: OpArrays) -> int:
        """Point ``lanes``' shared lanes at held ones; the slots newly held."""
        added = len(lanes.a)
        pool = self.pool
        for name in _SHARED_LANES:
            lane = getattr(lanes, name)
            try:
                key = hash(tuple(lane))
            except TypeError:  # an unhashable value is no exact type either
                key = None
            held = next((held for held in pool.get(key, ()) if _same_lane(held, lane)), None)
            if held is not None:
                setattr(lanes, name, held)
                continue
            added += len(lane)
            if key is not None and set(map(type, lane)) <= _EXACT_TYPES:
                pool.setdefault(key, []).append(lane)
        return added


_cache: OrderedDict[tuple, _Schedules] = OrderedDict()
#: Running total of ``slots`` over every entry of ``_cache``.
_cached_slots = 0


def clear_schedule_cache() -> None:
    """Drop every cached schedule (tests and memory-sensitive callers)."""
    global _cached_slots
    _cache.clear()
    _cached_slots = 0


def _replay_cached(workload, rank: int) -> tuple[OpArrays | None, str | None]:
    """:func:`_replay` behind the LRU schedule cache (reason cached too)."""
    global _cached_slots
    key = workload.schedule_cache_key()
    if key is None:
        return _replay(workload, rank)
    schedules = _cache.get(key)
    if schedules is not None:
        _cache.move_to_end(key)
        entry = schedules.ranks.get(rank)
        if entry is not None:
            return entry
    entry = _replay(workload, rank)
    lanes = entry[0]
    if lanes is None or len(lanes) * (1 + len(_SHARED_LANES)) <= _CACHE_MAX_OPS:
        if schedules is None:
            schedules = _cache[key] = _Schedules()
        if lanes is not None:
            lanes.a = _narrowed(lanes.a)
            added = schedules.share(lanes)
            schedules.slots += added
            _cached_slots += added
        schedules.ranks[rank] = entry
        while len(_cache) > _CACHE_MAX_KEYS or (
            len(_cache) > 1 and _cached_slots > _CACHE_MAX_OPS
        ):
            _cached_slots -= _cache.popitem(last=False)[1].slots
    return entry


def compile_info(workload, rank: int) -> dict:
    """Whether ``rank``'s schedule takes the fast lane, and if not, why.

    Mirrors the parallel engine's ``parallel_info`` contract: an engaged
    fast lane reports its size, an ineligible one reports an explicit
    ``"fallback"`` reason instead of silently degrading.  Purely
    informational — the decision itself is made identically (and
    independently) by :func:`compile_program`.
    """
    if not workload.compile_supported:
        return {"compiled": False, "fallback": "workload opts out (compile_supported=False)"}
    if not workload.prefetch_compute_noise:
        return {
            "compiled": False,
            "fallback": "compute-noise prefetch disabled (RNG order is schedule-dependent)",
        }
    lanes, reason = _replay_cached(workload, rank)
    if lanes is None:
        return {"compiled": False, "fallback": reason}
    return {"compiled": True, "ops": len(lanes)}


def compile_program(workload, ctx: RankContext) -> CompiledProgram | None:
    """Compile (or fetch from cache) ``ctx.rank``'s schedule of ``workload``.

    Returns a :class:`CompiledProgram` bound to ``ctx.rng``, or ``None`` when
    the rank program must run under the generator protocol.
    """
    if not workload.compile_supported or not workload.prefetch_compute_noise:
        return None
    lanes, _reason = _replay_cached(workload, ctx.rank)
    if lanes is None:
        return None
    return CompiledProgram(
        lanes,
        rng=ctx.rng,
        sigma=workload.compute_noise,
        noise_block=workload._NOISE_BLOCK,
    )
