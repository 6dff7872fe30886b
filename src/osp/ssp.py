"""Deterministic in-process simulator of sparse sequence parallelism.

Subsequences of a pattern layout are sharded across N ranks (k^2 must be
divisible by N, giving G = k^2 / N subsequences per rank per batch item).
Switching between the token-wise and group-wise layouts then needs one
collective:

  1. each rank re-splits its local subsequences with a token-wise
     rearrange on the reduced (t, h/k, w/k) grid, which groups elements
     by their target subsequence into its row of a sender-major buffer;
  2. one all-to-all delivers chunk j of rank r to slot r of rank j;
     `exchange_map` is its routing on that buffer;
  3. each rank swaps the (source subsequence, target slot) nesting of
     its received chunks and merges them with the reverse rearrange into
     the switched layout.

All three steps are named-axis permutations, so they compose into one
gather: a switch runs as one read of the whole rank-major group and one
write of its switched rows, and the sender-major buffer is never
materialised. `IndexMap.apply` runs that gather; `gridseq` gives its row
split and output-buffer policy. The same plan converts token-wise to
group-wise and back.
It depends only on the grid, N and the local batch, so it is composed
once per process and kept for the life of the process.
Building a plan is also where a switch's preconditions are checked
(N divides k^2, G divides the local batch, the group-wise layout holds
the grid), once per plan and not per switch. A test that swaps
`rearrange_map`, `exchange_map` or the layout table must call
`_switch_plan.cache_clear()` first.

A process group is one rank-major tensor: rank r holds row block r, so
every rank holds the same number of whole subsequences.

Collectives have no transport model; each executed collective writes one
event to the `CommLog` ledger with the exact scalar elements it moves per
rank. `checks.comm_comparison` reads that ledger and sets it beside the
baselines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gridseq import GridShape, IndexMap, SequenceTensor, rearrange_map
from .skiparse import orig_to_tsa, tsa_to_gsa, tsa_to_orig


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
    """`ranks` ranks over one rank-major tensor: rank r holds row block r."""

    tensor: SequenceTensor
    ranks: int
    log: CommLog

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ShardingError(f"group size must be at least 1, got {self.ranks}")
        if self.tensor.batch % self.ranks:
            raise ShardingError(
                f"batch {self.tensor.batch} not divisible by group size {self.ranks}"
            )

    @property
    def shards(self) -> tuple[RankShard, ...]:
        """Read-only views of the row blocks, rank r's at index r."""
        return tuple(RankShard(SequenceTensor(rows)) for rows in np.split(self.tensor.data, self.ranks))

    @property
    def local_elements(self) -> int:
        return self.tensor.data.size // self.ranks


def shard_pattern_layout(x_pattern: SequenceTensor, group_size: int,
                         log: CommLog | None = None) -> ProcessGroup:
    """Shard a pattern-layout tensor along its enlarged batch axis; rank r
    holds batch rows [r*B/N, (r+1)*B/N). Slicing along the batch axis always
    respects subsequence boundaries because each batch row is one whole
    subsequence."""
    return ProcessGroup(x_pattern, group_size, log if log is not None else CommLog())


def exchange_map(n: int, lead: int, seq: int) -> IndexMap:
    """Routing of the all-to-all on n ranks: the rows (src, dst, c) of a
    sender-major (n·lead, seq) buffer, whose chunk dst of sender src is
    bound for rank dst, read as (dst, src, c). Row block r of the result is
    what rank r receives: chunk r of every sender, in sender order. Raises
    CollectiveError unless n is at least 1 and divides lead."""
    _check_chunks(n, lead)
    return rearrange_map([("src", n), ("dst", n), ("c", lead // n)], [("s", seq)],
                         ["dst", "src", "c"], ["s"])


def all_to_all(shape: tuple[int, int, int, int], log: CommLog) -> None:
    """All-to-all collective over a sender-major buffer of `shape`
    (n, lead, seq, chan): rank j sends its row j, whose r-th of n equal
    chunks along lead is bound for rank r. The switch reads its routing
    through `exchange_map(n, lead, seq)` inside its one gather, so the
    collective moves nothing itself. Logs one event; the payload metric is
    the whole per-rank buffer (self-chunk included)."""
    n, lead, seq, chan = shape
    _check_chunks(n, lead)
    log.record("all_to_all", lead * seq * chan)


def _check_chunks(n: int, lead: int) -> None:
    if n < 1:
        raise CollectiveError(f"all_to_all needs at least one rank, got {n}")
    if lead % n:
        raise CollectiveError(f"leading axis {lead} not divisible into {n} chunks")


def _switch_stages(reduced: GridShape, n: int, b: int) -> tuple[IndexMap, IndexMap]:
    """(split, merge) stages of a switch on n ranks, each holding the
    G = k^2 / n subsequences of b batch items on the reduced grid. split
    reads every rank's rows and writes the sender-major buffer, rank j's
    split into row block j; merge reads that buffer through the exchange
    and writes every rank's switched rows, rank r's in block r."""
    g_per_rank = reduced.k * reduced.k // n
    rows = n * g_per_rank * b
    # the full-batch split nests its rows (target subsequence, rank, local
    # row); the sender-major buffer holds them rank-outermost
    full = orig_to_tsa(reduced, batch=rows)
    senders = rearrange_map([("sub", reduced.k * reduced.k), ("rank", n), ("row", g_per_rank * b)],
                            [("s", full.out_seq)], ["rank", "sub", "row"], ["s"])
    split = senders.compose(full)
    # received rows nest (dst rank, src rank, target slot, src subsequence,
    # batch item); the merge reads the source subsequences outermost and
    # writes rank-major rows (dst, slot, b)
    order = rearrange_map([("dst", n), ("src", n), ("slot", g_per_rank), ("sub", g_per_rank),
                           ("b", b)], [("s", split.out_seq)],
                          ["src", "sub", "dst", "slot", "b"], ["s"])
    merge = tsa_to_orig(reduced, batch=rows).compose(order)
    return split, merge.compose(exchange_map(n, split.out_batch // n, split.out_seq))


@functools.cache
def _switch_plan(g: GridShape, n: int, local_batch: int) -> tuple[IndexMap, tuple[int, int, int]]:
    """The whole switch on grid g as one gather, merge ∘ exchange ∘ split,
    for n ranks of local_batch rows each, and the sender-major (n, lead,
    seq) of its all-to-all. Raises ShardingError unless n divides k^2,
    ProtocolError unless G = k^2 / n divides local_batch, and PatternError
    unless the group-wise layout holds g."""
    k2 = g.k * g.k
    if k2 % n:
        raise ShardingError(f"k^2={k2} not divisible by group size {n}")
    g_per_rank = k2 // n
    if local_batch % g_per_rank:
        raise ProtocolError(f"local batch {local_batch} not divisible by G={g_per_rank}")
    tsa_to_gsa(g)  # PatternError naming g unless g has a group-wise layout
    reduced = GridShape(g.t, g.h // g.k, g.w // g.k, g.k)
    split, merge = _switch_stages(reduced, n, local_batch // g_per_rank)
    # each rank sends its k^2 split subsequences per local row
    return merge.compose(split), (n, k2 * local_batch, split.out_seq)


def ssp_pattern_switch(group: ProcessGroup, g: GridShape) -> ProcessGroup:
    """Switch every rank's rows between the token-wise and group-wise
    layouts with exactly one all-to-all. The routine is its own inverse:
    applied to token-wise rows it yields group-wise rows and vice versa.
    The result equals gathering all shards, converting with the
    single-process direct map, and resharding."""
    x, n = group.tensor, group.ranks
    plan, sender_major = _switch_plan(g, n, x.batch // n)
    if x.seq != plan.in_seq:
        raise ProtocolError(f"shard seq {x.seq} != subsequence length {plan.in_seq}")
    all_to_all((*sender_major, x.chan), group.log)
    return ProcessGroup(plan.apply(x), n, group.log)
