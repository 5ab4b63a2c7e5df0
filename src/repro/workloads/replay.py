"""Trace-driven replay workload (``workload="replay:file=trace.jsonl"``).

Replays a recorded two-level trace back through the simulator as a rank
program.  The source is either the repo's native v2 columnar trace format
(:mod:`repro.trace.io`) or a DUMPI-style text dump
(:mod:`repro.trace.import_dumpi`); the format is sniffed from the first
non-whitespace byte (``{`` means v2 JSON lines).

Replay semantics
----------------
The trace's **logical** streams are the contract: each rank's recorded
per-receiver ``(sender, tag, nbytes)`` sequence is reproduced exactly, by
construction —

* every rank posts one ``IrecvOp`` per logical record, in recorded stream
  order, before doing anything else.  MPI matching is FIFO per
  ``(source, tag)`` channel, so posting order pins the logical order;
* the send side is *reconstructed* from all ranks' logical records: every
  record ``(receiver, sender, tag, nbytes, time)`` becomes one ``IsendOp``
  on ``sender``.  Within one ``(dest, tag)`` channel sends are emitted in
  the destination's stream order (a running maximum over the recorded
  times enforces monotonicity even if the dump's clocks wobble); across
  channels they are interleaved by recorded time, with deterministic
  ``(time, dest, tag, seq)`` tie-breaking;
* recorded inter-send gaps are replayed as noiseless ``ComputeOp`` phases,
  scaled by ``time_scale`` (0 collapses the timeline — structure-only
  replay; 1 replays recorded pacing);
* one trailing full-set waitall drains every request.

Because the program is a pure function of the file content, it compiles
onto the op-array fast lane (all-upfront irecvs, sends, one
``OP_WAITALL``) and runs bit-identically on the scalar, vectorised and
parallel engines.  The file's SHA-256 digest is part of
:meth:`ReplayWorkload.parameters`, so the schedule cache can never serve
stale lanes after the file changes.

``nprocs`` may be 0 (the scenario layer's "from the file" sentinel): the
process count then comes from the trace itself.  An explicit count must be
at least the trace's — extra ranks simply replay empty programs.
"""

from __future__ import annotations

import os
from typing import Generator

from repro.mpi.communicator import RankContext
from repro.mpi.ops import ComputeOp, IrecvOp, IsendOp, Operation, WaitallOp
from repro.trace.columns import KIND_NAMES
from repro.util.digest import sha256
from repro.workloads.base import Workload

__all__ = ["ReplayWorkload"]


def _sniff_format(path: str | os.PathLike) -> str:
    """``"v2"`` when the first non-whitespace byte is ``{``, else ``"dumpi"``."""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(512)
            if not chunk:
                return "dumpi"
            stripped = chunk.lstrip()
            if stripped:
                return "v2" if stripped[:1] == b"{" else "dumpi"


def _receives_from_v2(path) -> tuple[int, dict[int, list[tuple]]]:
    """Per-rank logical receive tuples from a native v2 columnar trace."""
    from repro.trace.io import load_traces

    traces, _metadata = load_traces(path)
    receives: dict[int, list[tuple]] = {}
    for trace in traces:
        logical = trace.logical
        rows = sorted(
            zip(
                logical.sender_array().tolist(),
                logical.size_array().tolist(),
                logical.tag_array().tolist(),
                logical.kind_code_array().tolist(),
                logical.time_array().tolist(),
                logical.seq_array().tolist(),
            ),
            key=lambda row: row[5],
        )
        if rows:
            receives[trace.rank] = rows
    return len(traces), receives


class ReplayWorkload(Workload):
    """Replay a recorded trace file as a rank program.

    Parameters
    ----------
    nprocs:
        Process count, or 0 to take it from the trace file.
    file:
        Path to a v2 columnar trace (``.jsonl``) or DUMPI-style text dump.
    time_scale:
        Multiplier on the recorded inter-send gaps (0 = structure-only).
    """

    name = "replay"

    def __init__(
        self,
        nprocs: int = 0,
        file: str | os.PathLike = "",
        time_scale: float = 1.0,
        **kwargs,
    ) -> None:
        if not file:
            raise ValueError(
                "ReplayWorkload needs a trace file (workload='replay:file=trace.jsonl')"
            )
        if time_scale < 0:
            raise ValueError(f"time_scale must be non-negative, got {time_scale}")
        self.file = os.fspath(file)
        self.time_scale = float(time_scale)
        with open(self.file, "rb") as handle:
            self._digest = sha256(handle.read()).hexdigest()
        if _sniff_format(self.file) == "v2":
            trace_nprocs, receives = _receives_from_v2(self.file)
        else:
            from repro.trace.import_dumpi import load_dumpi

            trace_nprocs, receives = load_dumpi(self.file)
        self.trace_nprocs = trace_nprocs
        self._receives = receives
        nprocs = int(nprocs)
        if nprocs == 0:
            nprocs = trace_nprocs
        elif nprocs < trace_nprocs:
            raise ValueError(
                f"nprocs={nprocs} is smaller than the trace's process count "
                f"{trace_nprocs} ({self.file})"
            )
        self._sends_by_rank = self._reconstruct_sends(receives)
        super().__init__(nprocs, **kwargs)

    @staticmethod
    def _reconstruct_sends(receives: dict[int, list[tuple]]) -> dict[int, list[tuple]]:
        """Per-sender ``(time, dest, tag, nbytes, kind_code, dest_seq)`` events.

        Within each ``(sender, dest, tag)`` channel the destination's stream
        order is authoritative; a running maximum over the recorded times
        keeps the channel monotone, then one deterministic sort interleaves
        the sender's channels.
        """
        by_sender: dict[int, list[tuple]] = {}
        channel_clock: dict[tuple, float] = {}
        for dest, rows in sorted(receives.items()):
            for sender, nbytes, tag, kind_code, time, seq in rows:
                channel = (sender, dest, tag)
                adjusted = max(channel_clock.get(channel, 0.0), float(time))
                channel_clock[channel] = adjusted
                by_sender.setdefault(sender, []).append(
                    (adjusted, dest, tag, int(nbytes), int(kind_code), int(seq))
                )
        for events in by_sender.values():
            events.sort(key=lambda event: (event[0], event[1], event[2], event[5]))
        return by_sender

    def default_iterations(self) -> int:
        return 1

    def validate(self) -> None:
        if self.nprocs < 1:
            raise ValueError("ReplayWorkload needs at least 1 rank")
        for sender in self._sends_by_rank:
            if not (0 <= sender < self.nprocs):
                raise ValueError(
                    f"trace references sender rank {sender} outside nprocs={self.nprocs}"
                )

    def representative_rank(self) -> int:
        if not self._receives:
            return 0
        return max(self._receives, key=lambda rank: (len(self._receives[rank]), -rank))

    def parameters(self) -> dict:
        # The digest stands in for the file content in the schedule-cache
        # contract; ``file`` itself is reported for Table-1-style listings.
        return {
            "file": os.path.basename(self.file),
            "digest": self._digest,
            "time_scale": self.time_scale,
            "trace_nprocs": self.trace_nprocs,
        }

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        rank = ctx.rank
        requests = []
        # Receive side: every logical record, posted upfront in stream order.
        for sender, _nbytes, tag, kind_code, _time, _seq in self._receives.get(rank, ()):
            request = yield IrecvOp(source=sender, tag=tag, kind=KIND_NAMES[kind_code])
            requests.append(request)
        # Send side: reconstructed events, paced by the recorded gaps.
        scale = self.time_scale
        clock = 0.0
        for time, dest, tag, nbytes, kind_code, _seq in self._sends_by_rank.get(rank, ()):
            if time > clock:
                if scale > 0.0:
                    yield ComputeOp((time - clock) * scale)
                clock = time
            request = yield IsendOp(dest, nbytes, tag=tag, kind=KIND_NAMES[kind_code])
            requests.append(request)
        if requests:
            yield WaitallOp(requests)
