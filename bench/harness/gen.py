"""Seeded input generators: every byte the benchmark feeds comes from ``--seed``.

Simulation workloads take the seed through ``ScenarioSpec.seed``; the serve
workloads need message streams, generated here.  Nothing in this module
imports ``repro`` or Python's ``random`` (whose helpers have changed between
interpreter versions): the generator is a SplitMix64 written out in full, so
equal seeds give byte-identical inputs everywhere.

A stream is what one receiver sees: a short periodic pattern of
``(sender, nbytes)`` pairs — the paper's observation about MPI codes — with
an optional share of noise messages whose sender is drawn at random, so that
prediction accuracy is a property of the predictor and not a constant 1.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

#: Pattern periods a stream may have (all far below the predictor's 256 cap).
PERIODS = (2, 3, 4, 6, 8, 12, 16)
#: Message sizes a pattern draws from.
SIZES = (64, 512, 4096, 16384, 65536)
#: Senders are drawn from ``range(SENDER_SPACE)``.
SENDER_SPACE = 64


class SplitMix64:
    """Small deterministic PRNG (one 64-bit word of state per stream)."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in ``range(n)`` (bias is negligible for small n)."""
        return self.u64() % n

    def chance(self, share: float) -> bool:
        return (self.u64() >> 11) < share * (1 << 53)


class StreamSource:
    """One receiver's endless message stream."""

    __slots__ = ("key", "pattern", "pos", "rng", "noise", "_next")

    def __init__(self, seed: int, index: int, noise: float = 0.0, prefix: str = "r") -> None:
        rng = SplitMix64(seed * 1_000_003 + index * 7919 + 1)
        period = PERIODS[rng.below(len(PERIODS))]
        senders = [rng.below(SENDER_SPACE) for _ in range(2 + rng.below(6))]
        self.pattern = [
            (senders[rng.below(len(senders))], SIZES[rng.below(len(SIZES))])
            for _ in range(period)
        ]
        self.key = f"{prefix}{index}"
        self.pos = 0
        self.rng = rng
        self.noise = noise
        self._next = self._draw()

    def _draw(self) -> tuple[int, int]:
        item = self.pattern[self.pos % len(self.pattern)]
        self.pos += 1
        if self.noise and self.rng.chance(self.noise):
            return (self.rng.below(SENDER_SPACE), item[1])
        return item

    def take(self) -> tuple[int, int]:
        """The next ``(sender, nbytes)`` of the stream."""
        item = self._next
        self._next = self._draw()
        return item

    def peek_sender(self) -> int:
        """The sender :meth:`take` will return next (what a +1 prediction must hit)."""
        return self._next[0]


class Batch:
    """One unit of traffic: wire bytes, line count, and the answer key.

    ``expect`` holds, per ``predict`` line in order, the sender the stream
    goes on to send next.  ``observes / runs`` is the mean same-key observe
    run length, which is what the server's coalescer gets to work with.
    """

    __slots__ = ("payload", "lines", "expect", "observes", "runs")

    def __init__(self) -> None:
        self.payload = b""
        self.lines = 0
        self.expect: list[int] = []
        self.observes = 0
        self.runs = 0

    @property
    def run_mean(self) -> float:
        return self.observes / self.runs if self.runs else 0.0


def observe_line(key: str, sender: int, nbytes: int) -> str:
    return f'{{"nbytes":{nbytes},"receiver":"{key}","sender":{sender}}}\n'


def predict_line(key: str) -> str:
    return f'{{"op":"predict","receiver":"{key}"}}\n'


FLUSH_LINE = b'{"op":"flush"}\n'
FLUSH_RESPONSE = b'{"ok":true,"op":"flush"}\n'
STATS_LINE = b'{"op":"stats"}\n'


def _finish(batch: Batch, out: list[str]) -> Batch:
    batch.payload = "".join(out).encode("ascii") + FLUSH_LINE
    batch.lines = len(out) + 1
    return batch


def _emit_run(batch: Batch, out: list[str], source: StreamSource, length: int) -> None:
    key = source.key
    for _ in range(length):
        sender, nbytes = source.take()
        out.append(observe_line(key, sender, nbytes))
    batch.observes += length
    batch.runs += 1


def _emit_predict(batch: Batch, out: list[str], source: StreamSource) -> None:
    out.append(predict_line(source.key))
    batch.expect.append(source.peek_sender())


class ChurnTraffic:
    """``serve-cold-churn``: stream visits, most to streams never seen before.

    Each visit is ``observes_per_visit`` observes and one ``predict``.  A
    quarter of the visits return to an earlier stream; a third of those go
    to a small hot set that stays resident (and so gets predictable), the
    rest uniformly to any earlier stream, which the LRU has usually evicted.
    """

    RETURN_SHARE = 0.25
    HOT_SHARE = 1.0 / 3.0
    HOT_SET = 64

    def __init__(self, seed: int, observes_per_visit: int) -> None:
        self.seed = seed
        self.observes_per_visit = observes_per_visit
        self.rng = SplitMix64(seed * 31 + 17)
        self.streams: list[StreamSource] = []

    def _pick(self) -> StreamSource:
        rng = self.rng
        streams = self.streams
        if streams and rng.chance(self.RETURN_SHARE):
            if rng.chance(self.HOT_SHARE):
                return streams[rng.below(min(self.HOT_SET, len(streams)))]
            return streams[rng.below(len(streams))]
        source = StreamSource(self.seed, len(streams), noise=0.0, prefix="c")
        streams.append(source)
        return source

    def batch(self, visits: int) -> Batch:
        batch = Batch()
        out: list[str] = []
        for _ in range(visits):
            source = self._pick()
            _emit_run(batch, out, source, self.observes_per_visit)
            _emit_predict(batch, out, source)
        return _finish(batch, out)


class ResidentTraffic:
    """``serve-warm-bursts`` / ``serve-interleaved``: a fixed set of resident streams.

    ``run_length`` observes go to one stream before moving to the next (8 for
    bursts, 1 for interleaved); a ``predict`` follows every ``predict_after``
    observes, addressed to the stream just observed.
    """

    NOISE = 0.02

    def __init__(
        self, seed: int, streams: int, run_length: int, predict_after: int, prefix: str = "r"
    ) -> None:
        self.sources = [
            StreamSource(seed, index, noise=self.NOISE, prefix=prefix) for index in range(streams)
        ]
        self.run_length = run_length
        self.predict_after = predict_after
        self._cursor = 0
        self._left_in_run = 0
        self._since_predict = 0

    def warmup(self, observations: int) -> Batch:
        """Every stream in turn, ``observations`` each (long same-key runs)."""
        batch = Batch()
        out: list[str] = []
        for source in self.sources:
            _emit_run(batch, out, source, observations)
        return _finish(batch, out)

    def _take_lines(self, batch: Batch, count: int) -> list[str]:
        """Exactly ``count`` further lines of the endless traffic."""
        out: list[str] = []
        sources = self.sources
        while len(out) < count:
            source = sources[self._cursor % len(sources)]
            if self._since_predict == self.predict_after:
                self._since_predict = 0
                _emit_predict(batch, out, source)
                continue
            if self._left_in_run == 0:
                self._cursor += 1
                source = sources[self._cursor % len(sources)]
                self._left_in_run = self.run_length
                batch.runs += 1
            sender, nbytes = source.take()
            out.append(observe_line(source.key, sender, nbytes))
            batch.observes += 1
            self._left_in_run -= 1
            self._since_predict += 1
        return out

    def batch(self, lines: int) -> Batch:
        batch = Batch()
        return _finish(batch, self._take_lines(batch, lines))

    def ticks(self, count: int, lines_per_tick: int) -> tuple[list[bytes], list[int], Batch]:
        """Open-loop schedule: ``count`` chunks of ``lines_per_tick`` lines.

        Returns the chunks, the number of ``predict`` lines in each, and the
        :class:`Batch` of all of them (the sender adds its trailing flush).
        """
        batch = Batch()
        chunks, predicts = [], []
        for _ in range(count):
            before = len(batch.expect)
            chunks.append("".join(self._take_lines(batch, lines_per_tick)).encode("ascii"))
            predicts.append(len(batch.expect) - before)
        batch.payload = b"".join(chunks) + FLUSH_LINE
        batch.lines = count * lines_per_tick + 1
        return chunks, predicts, batch
