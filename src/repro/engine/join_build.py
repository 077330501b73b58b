"""The hash join's build side and its probe kernel.

:class:`JoinBuild` is the only code that builds a hash-join build side:
the executor's materialising hash join and its count-only twin probe
it, and ``Database.index`` caches one per key column for the index
nested-loop join, wander-join sampling and ``datad/fanout.py``'s
degrees.  Labelling and join trees match keys as equal codes instead
(:class:`repro.engine.jointree.EdgeCodes`, under this module's span rule).

A build keeps the valid (not-NULL) build keys stably sorted together
with their positions in the build input, so the matches of one probe
key are one contiguous range ``[start, start + count)`` of
``positions`` — in build-input order within a key, which fixes the
join's output row order.  ``match`` finds those ranges in one of two
ways and returns the same ``(starts, counts)`` either way:

- **direct address** — for INT keys whose domain is dense enough, a
  directory indexed by ``key - kmin`` holds the prefix sums of the
  per-key counts (``np.bincount``), so a probe is two array look-ups:
  O(1) per probe key, O(build + probe + span) per join, which is the
  linear charge ``engine/cost.py`` prices a hash join at;
- **binary search** — for FLOAT keys and sparse key domains, where a
  directory would cost more to fill than the join it serves.

Which one runs depends only on the key dtype and the sizes of the two
inputs; nothing selects it from outside.
"""

from __future__ import annotations

import numpy as np

#: A directory is built when the key span ``kmax - kmin + 1`` is at most
#: this multiple of (build rows + probe rows): filling it is then linear
#: in the join's inputs, and its footprint is bounded by them.
DIRECTORY_SPAN_FACTOR = 4


class JoinBuild:
    """Build side of one hash join.

    ``keys``/``valid`` are the build input's join-key array and
    not-NULL mask.  ``probe_rows`` is the size of the probe input of
    the join the build is made for (it only selects the branch below,
    which only ever affects speed).
    """

    __slots__ = ("sorted_keys", "positions", "_kmin", "_kmax", "_offsets")

    def __init__(self, keys: np.ndarray, valid: np.ndarray, probe_rows: int):
        build_ids = np.nonzero(valid)[0]
        build_keys = keys[build_ids]
        order = np.argsort(build_keys, kind="stable")
        #: Valid build keys in ascending order.
        self.sorted_keys = build_keys[order]
        #: Position in the build input of each entry of ``sorted_keys``.
        self.positions = build_ids[order]
        #: Directory: ``_offsets[k - kmin]`` build keys are smaller than
        #: ``k``, so key ``k`` occupies ``_offsets[k - kmin : k - kmin + 2]``.
        self._offsets = None
        if len(build_keys) == 0 or build_keys.dtype != np.int64:
            return
        # Python ints: the span of int64 extremes does not fit int64.
        self._kmin = int(self.sorted_keys[0])
        self._kmax = int(self.sorted_keys[-1])
        span = self._kmax - self._kmin + 1
        if span <= DIRECTORY_SPAN_FACTOR * (len(build_keys) + probe_rows):
            self._offsets = np.zeros(span + 1, dtype=np.intp)
            np.cumsum(
                np.bincount(self.sorted_keys - self._kmin, minlength=span),
                out=self._offsets[1:],
            )

    @property
    def direct(self) -> bool:
        """True when INT probes are answered from the directory."""
        return self._offsets is not None

    @property
    def nbytes(self) -> int:
        """Footprint of the build, directory included."""
        total = self.sorted_keys.nbytes + self.positions.nbytes
        if self._offsets is not None:
            total += self._offsets.nbytes
        return total

    def match(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Match range of every probe key: ``(starts, counts)``.

        Probe ``i`` joins ``positions[starts[i] : starts[i] + counts[i]]``.
        Both arrays are element for element what
        ``searchsorted(sorted_keys, probe_keys, "left")`` and the
        ``"right"`` minus ``"left"`` difference give, whichever branch
        computes them.
        """
        if self._offsets is None or probe_keys.dtype != np.int64:
            starts = np.searchsorted(self.sorted_keys, probe_keys, side="left")
            ends = np.searchsorted(self.sorted_keys, probe_keys, side="right")
            return starts, ends - starts
        # Clamp by comparison *before* subtracting kmin: the difference
        # of an arbitrary int64 probe key and kmin can wrap.
        slots = np.clip(probe_keys, self._kmin, self._kmax)
        dangling = slots != probe_keys
        slots -= self._kmin
        starts = self._offsets[slots]
        slots += 1
        counts = self._offsets[slots]
        counts -= starts
        if dangling.any():
            counts[dangling] = 0
            # Keys below kmin already read offset 0; keys above kmax
            # insert after the last build key.
            starts[probe_keys > self._kmax] = len(self.sorted_keys)
        return starts, counts
