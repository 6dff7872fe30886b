"""Deterministic in-process simulator of sparse sequence parallelism.

Subsequences of a pattern layout are sharded across N ranks (k^2 must be
divisible by N, giving G = k^2 / N subsequences per rank per batch item).
Switching between the token-wise and group-wise layouts then needs one
collective:

  1. each rank re-splits its local subsequences with a token-wise
     rearrange on the reduced (t, h/k, w/k) grid, which groups elements
     by their target subsequence;
  2. one all-to-all delivers chunk j of rank r to slot r of rank j; every
     rank's received chunks land in one receive buffer, allocated once per
     call, so the collective pays for the bytes it moves rather than for
     N fresh buffers;
  3. one local gather swaps the (source subsequence, target slot) nesting
     of the received chunks and merges them with the reverse rearrange
     into the switched layout; both are named-axis maps composed into one.

The same three steps convert token-wise to group-wise and back. The split
and merge maps depend only on the reduced grid, N and the local batch, so
they are built once per process and kept in a memo of the last
PLAN_MEMO_SIZE plans; a test that swaps `rearrange_map` or the layout
table must call `_switch_plan.cache_clear()` first.

Collectives are synchronous buffer exchanges with no transport model; each
executed collective writes one event to the `CommLog` ledger with the
exact scalar elements it moved per rank. `checks.comm_comparison` reads
that ledger and sets it beside the baselines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gridseq import GridShape, IndexMap, SequenceTensor, rearrange_map
from .skiparse import orig_to_tsa, tsa_to_orig

# switch plans kept by the memo, one per (reduced grid, N, batch items);
# one report-all builds 3
PLAN_MEMO_SIZE = 16


class ShardingError(ValueError):
    """A group has no ranks, or shard counts do not divide evenly."""


class CollectiveError(ValueError):
    """Send buffers cannot be chunked equally."""


class ProtocolError(ValueError):
    """Rank shards are inconsistent with the declared grid."""


@dataclass(frozen=True)
class CommEvent:
    kind: str  # "all_to_all", the one collective the switch records
    payload_per_rank: int  # scalar elements moved per rank


@dataclass
class CommLog:
    events: list[CommEvent] = field(default_factory=list)

    def record(self, kind: str, payload_per_rank: int) -> None:
        self.events.append(CommEvent(kind, int(payload_per_rank)))

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def total_payload(self, kind: str) -> int:
        return sum(e.payload_per_rank for e in self.events if e.kind == kind)


@dataclass(frozen=True)
class RankShard:
    tensor: SequenceTensor


@dataclass(frozen=True)
class ProcessGroup:
    """Rank r holds shards[r]; a shard's rank is its index."""

    shards: tuple[RankShard, ...]
    log: CommLog

    def __post_init__(self) -> None:
        if not self.shards:
            raise ShardingError("a process group needs at least one rank, got 0 shards")
        shapes = {s.tensor.data.shape for s in self.shards}
        if len(shapes) > 1:
            raise ShardingError(f"ranks hold unequal shapes: {sorted(shapes)}")

    @property
    def local_elements(self) -> int:
        return self.shards[0].tensor.data.size


def shard_pattern_layout(x_pattern: SequenceTensor, group_size: int,
                         log: CommLog | None = None) -> ProcessGroup:
    """Slice a pattern-layout tensor along its enlarged batch axis into
    equal contiguous shards; rank r holds batch rows [r*B/N, (r+1)*B/N).
    Slicing along the batch axis always respects subsequence boundaries
    because each batch row is one whole subsequence."""
    if group_size < 1:
        raise ShardingError(f"group size must be at least 1, got {group_size}")
    if x_pattern.batch % group_size:
        raise ShardingError(
            f"batch {x_pattern.batch} not divisible by group size {group_size}"
        )
    per = x_pattern.batch // group_size
    shards = tuple(
        RankShard(SequenceTensor(x_pattern.data[r * per:(r + 1) * per]))
        for r in range(group_size)
    )
    return ProcessGroup(shards, log if log is not None else CommLog())


def all_to_all(send: list[np.ndarray], log: CommLog) -> list[np.ndarray]:
    """All-to-all collective: received[r] is the concatenation over j of
    rank j's r-th chunk. Each send buffer must split into N equal chunks
    along its leading axis. Every received[r] is a view of one receive
    buffer, filled by one transposed copy per sender, and shares no memory
    with `send`. Logs one event; the payload metric is the whole per-rank
    buffer (self-chunk included)."""
    n = len(send)
    if not n:
        raise CollectiveError("all_to_all needs at least one rank, got 0 send buffers")
    shapes = {buf.shape for buf in send}
    if len(shapes) > 1:
        raise CollectiveError(f"ranks send unequal shapes: {sorted(shapes)}")
    lead, *rest = send[0].shape
    if lead % n:
        raise CollectiveError(f"leading axis {lead} not divisible into {n} chunks")
    # received[r, j] is rank j's r-th chunk; the dtype is concatenate's
    received = np.empty((n, n, lead // n, *rest), dtype=np.result_type(*send))
    for j, buf in enumerate(send):
        received[:, j] = buf.reshape(n, lead // n, *rest)
    log.record("all_to_all", send[0].size)
    return list(received.reshape(n, lead, *rest))


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _switch_plan(reduced: GridShape, n: int, b: int) -> tuple[IndexMap, IndexMap]:
    """(split, merge) maps of a switch on n ranks, each holding the
    G = k^2 / n subsequences of b batch items on the reduced grid."""
    g_per_rank = reduced.k * reduced.k // n
    split = orig_to_tsa(reduced, batch=g_per_rank * b)
    # received chunks nest (source rank, target slot, source subsequence,
    # batch item); the merge wants the source subsequences outermost
    swap = rearrange_map([("n", n), ("dst", g_per_rank), ("src", g_per_rank), ("b", b)],
                         [("s", split.out_seq)], ["n", "src", "dst", "b"], ["s"])
    merge = tsa_to_orig(reduced, batch=g_per_rank * b).compose(swap)
    return split, merge


def ssp_pattern_switch(group: ProcessGroup, g: GridShape) -> ProcessGroup:
    """Switch every rank's shards between the token-wise and group-wise
    layouts with exactly one all-to-all. The routine is its own inverse:
    applied to token-wise shards it yields group-wise shards and vice
    versa. The result equals gathering all shards, converting with the
    single-process direct map, and resharding."""
    n = len(group.shards)
    k2 = g.k * g.k
    if k2 % n:
        raise ShardingError(f"k^2={k2} not divisible by group size {n}")
    g_per_rank = k2 // n
    local_batch = group.shards[0].tensor.batch
    if local_batch % g_per_rank:
        raise ProtocolError(
            f"local batch {local_batch} not divisible by G={g_per_rank}"
        )
    b = local_batch // g_per_rank
    reduced = GridShape(g.t, g.h // g.k, g.w // g.k, g.k)
    if group.shards[0].tensor.seq != reduced.seq_len:
        raise ProtocolError(
            f"shard seq {group.shards[0].tensor.seq} != subsequence length {reduced.seq_len}"
        )

    split, merge = _switch_plan(reduced, n, b)

    # 1. local rearrangement: group local elements by target subsequence
    send = [split.apply(s.tensor).data for s in group.shards]
    # 2. one all-to-all delivers each target block to its owner rank; the
    # send buffers are dropped as soon as the received ones own the data
    received = all_to_all(send, group.log)
    del send
    # 3. one local gather per rank into the switched layout; the receive
    # buffer lives until every rank is merged and is freed on return
    out_shards = tuple(RankShard(merge.apply(SequenceTensor(buf))) for buf in received)
    return ProcessGroup(out_shards, group.log)
