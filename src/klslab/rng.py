"""Seeded, splittable random number streams.

Every routine in this package that consumes randomness takes either an
RngStream or a numpy Generator derived from one.  Streams are keyed by the
pair (seed, stream_id) through a counter-based Philox generator, so a given
pair always reproduces the same draw sequence regardless of what other
streams exist, which process they run in, or in which order they are
consumed.  That is what makes thread-count-independent output possible:
parallel work items each own a stream with a fixed id and results are
combined in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fan-out per nesting level for substream(); documented, not configurable.
# Collisions across levels are impossible for ids below _FANOUT.
_FANOUT = 1 << 16


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, i: int) -> "RngStream":
        """Child stream i; children of distinct parents never collide
        as long as parent ids stay below 2**16."""
        if i < 0 or i >= _FANOUT:
            raise ValueError(f"substream index {i} outside [0, {_FANOUT})")
        return RngStream(self.seed, (self.stream_id + 1) * _FANOUT + i)


def as_stream(rng) -> RngStream:
    """Accept an RngStream, an int seed, or None (seed 0).

    A Generator is refused with ValueError: it cannot hand out the
    disjoint substreams that make per-item results independent of
    scheduling.  Any other type is a TypeError.
    """
    if isinstance(rng, RngStream):
        return rng
    if rng is None:
        return RngStream(0)
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    if isinstance(rng, np.random.Generator):
        raise ValueError("need an RngStream or integer seed to make substreams, "
                         "got a Generator")
    raise TypeError(f"cannot make a random stream from {type(rng).__name__}")


def as_generator(rng) -> np.random.Generator:
    """A Generator unchanged; otherwise as_stream(rng).generator()."""
    if isinstance(rng, np.random.Generator):
        return rng
    return as_stream(rng).generator()
