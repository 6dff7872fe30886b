"""The three closed-loop workloads and the child process that runs one.

Each workload builds its inputs from the seed in set-up, together with
the oracle references it checks against. An op is one call chain into
the public osp API; `check` verifies its output outside the timed
interval and returns a description of the first failure, or None.
`trace_check` compares the counts the tracer recorded for one op with
the program's own formulas.

Why each workload exists:
  golden    the kit's golden-file path: report-all touches every module at
            small sizes, so per-call overhead, map building and the HiF8
            codec (its 1M-point sweep) dominate.
  clip-attn one any-resolution sparse attention layer at S=3840, C=64 on a
            quantized clip; the attention kernel sets the op time, the
            dense masked oracle sets set-up time and peak memory.
  layout    the permutation layers at scale (2M elements) with no
            attention: shard, one-collective pattern switch at N=4 and
            N=16, and reachability; large gathers and the all-to-all
            dominate.

Run as a script it is the child process that the runner starts:
  workloads.py --workload NAME --seed N --seconds S --trace 0|1 --role main|setup
It prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import osp.anyres
import osp.attention
import osp.checks
import osp.cli
import osp.gridseq
import osp.hif8
import osp.skiparse
import osp.ssp

from layers import METHODS, MODULES, PACKAGE, PEAK_MEMORY, COUNTERS, A2A, DENSE, SPARSE, \
    SWITCH, layer_metrics
from spans import SETUP_OP, Tracer

TSA = osp.skiparse.SparsePattern.TOKEN_WISE
GSA = osp.skiparse.SparsePattern.GROUP_WISE


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Workload:
    name: str
    info: dict

    def trace_check(self, i: int, op_spans: list) -> str | None:
        return None

    def close(self) -> None:
        pass


class Golden(Workload):
    """report-all with the run's seed; the report must pass and be
    byte-identical across the ops of one run."""

    name = "golden"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out = workdir / f"golden-{os.getpid()}.json"
        self.reference = self._digest(self.op(SETUP_OP))
        self.info = {"report_sha256": self.reference}

    def _digest(self, rc: int) -> str | None:
        if rc != 0:
            return None
        return hashlib.sha256(self.out.read_bytes()).hexdigest()

    def op(self, i: int) -> int:
        return osp.cli.main(["report-all", "--seed", str(self.seed), "--out", str(self.out)])

    def check(self, i: int, rc: int) -> str | None:
        if rc != 0:
            return f"op {i}: report-all exited {rc}"
        text = self.out.read_bytes()
        report = json.loads(text)
        if report.get("pass") is not True:
            failing = [k for k, s in report["sections"].items() if not s.get("pass")]
            return f"op {i}: report pass is not true; failing sections {failing}"
        digest = hashlib.sha256(text).hexdigest()
        if digest != self.reference:
            return f"op {i}: report sha256 {digest} differs from the run's first {self.reference}"
        return None

    def close(self) -> None:
        self.out.unlink(missing_ok=True)


class ClipAttn(Workload):
    """Pad, quantize and attend an any-resolution clip, alternating TSA and
    GSA layers; real tokens must match the masked-dense oracle."""

    name = "clip-attn"
    grid = osp.gridseq.GridShape(1, 60, 62, 2)
    chan = 64
    patterns = (TSA, GSA)

    def __init__(self, seed: int, workdir: Path) -> None:
        g = self.grid
        self.x = osp.gridseq.random_tensor(1, g.seq_len, self.chan, seed)
        pg = osp.anyres.pad_grid(g)
        xq = osp.hif8.roundtrip(osp.anyres.pad_tensor(self.x, pg), "forward")
        self.mask = np.asarray(pg.mask)
        self.real_ratio = float(pg.mask.mean())
        self.reference = {p: osp.attention.skiparse_reference(xq, g, p, pg).data
                          for p in self.patterns}
        self.sparse_macs = {p: osp.attention.flop_report(pg.padded, p, self.chan).sparse_flops
                            for p in self.patterns}
        self.tolerance = osp.checks.ATTN_TOLERANCE
        self.info = {"seq_padded": pg.padded.seq_len, "real_tokens": int(pg.mask.sum())}
        self.op(SETUP_OP)

    def op(self, i: int):
        pattern = self.patterns[i % 2]
        pg = osp.anyres.pad_grid(self.grid)
        xq = osp.hif8.roundtrip(osp.anyres.pad_tensor(self.x, pg), "forward")
        return osp.attention.skiparse_attention(xq, self.grid, pattern, pg)

    def check(self, i: int, y) -> str | None:
        pattern = self.patterns[i % 2]
        ref = self.reference[pattern]
        err = np.abs(y.data - ref)[:, self.mask, :]
        worst = float(err.max())
        if worst <= self.tolerance:
            return None
        token = int(np.flatnonzero(self.mask)[np.argwhere(err > self.tolerance)[0][1]])
        return (f"op {i} pattern {pattern.value}: max real-token error {worst:.3e} > "
                f"{self.tolerance:g}; first at padded token {token}: "
                f"got {y.data[0, token, :3].tolist()} want {ref[0, token, :3].tolist()}")

    def trace_check(self, i: int, op_spans: list) -> str | None:
        pattern = self.patterns[i % 2]
        for idx, s in op_spans:
            if s.name == SPARSE:
                macs = sum(c.counts["macs"] for _, c in op_spans
                           if c.name == DENSE and c.parent == idx)
                if macs != self.sparse_macs[pattern]:
                    return (f"op {i} pattern {pattern.value}: dense MACs {macs} != "
                            f"flop_report sparse_flops {self.sparse_macs[pattern]}")
            if s.name == "anyres.pad_grid":
                ratio = s.counts["real"] / s.counts["padded"]
                if ratio != self.real_ratio:
                    return f"op {i}: real_token_ratio {ratio} != pg.mask.mean() {self.real_ratio}"
        return None


class Layout(Workload):
    """TSA->GSA->TSA pattern-switch round trips at N=4 and N=16 plus
    two-hop reachability; every result is checked bitwise."""

    name = "layout"
    grid = osp.gridseq.GridShape(4, 128, 128, 4)
    chan = 32
    group_sizes = (4, 16)
    reach_grid = osp.gridseq.GridShape(1, 32, 32, 2)

    def __init__(self, seed: int, workdir: Path) -> None:
        x = osp.gridseq.random_tensor(1, self.grid.seq_len, self.chan, seed)
        self.x_tsa = osp.skiparse.pattern_map(self.grid, TSA).apply(x)
        self.oracle_gsa = osp.skiparse.tsa_to_gsa(self.grid).apply(self.x_tsa).data
        self.info = {"elements": int(x.data.size)}
        self.op(SETUP_OP)

    def op(self, i: int):
        rounds = []
        for n in self.group_sizes:
            log = osp.ssp.CommLog()
            group = osp.ssp.shard_pattern_layout(self.x_tsa, n, log)
            gsa = osp.ssp.ssp_pattern_switch(group, self.grid)
            back = osp.ssp.ssp_pattern_switch(gsa, self.grid)
            rounds.append((n, log, group, gsa, back))
        return rounds, osp.skiparse.reachability_hops(self.reach_grid)

    def check(self, i: int, result) -> str | None:
        rounds, hops = result
        for n, log, group, gsa, back in rounds:
            per = self.x_tsa.batch // n
            for r, shard in enumerate(gsa.shards):
                if not np.array_equal(shard.tensor.data, self.oracle_gsa[r * per:(r + 1) * per]):
                    return f"op {i} N={n}: GSA shard of rank {r} differs from tsa_to_gsa oracle"
            for r, shard in enumerate(back.shards):
                if not np.array_equal(shard.tensor.data, self.x_tsa.data[r * per:(r + 1) * per]):
                    return f"op {i} N={n}: round trip of rank {r} differs from the input"
            if log.count("all_to_all") != 2 or log.count("all_gather") != 0:
                return (f"op {i} N={n}: {log.count('all_to_all')} all_to_all and "
                        f"{log.count('all_gather')} all_gather for 2 switches")
            for e in log.events:
                if e.payload_per_rank != group.local_elements:
                    return (f"op {i} N={n}: all_to_all moved {e.payload_per_rank} per rank, "
                            f"shard holds {group.local_elements}")
        if hops != 2:
            return f"op {i}: reachability_hops {hops} != 2"
        return None

    def trace_check(self, i: int, op_spans: list) -> str | None:
        for idx, s in op_spans:
            if s.name == SWITCH:
                elems = [c.counts["elems"] for _, c in op_spans
                         if c.name == A2A and c.parent == idx]
                if elems != [s.counts["shard_elems"]]:
                    return (f"op {i}: switch all_to_all elems {elems} != per-rank shard "
                            f"size {s.counts['shard_elems']}")
        return None


WORKLOADS = {w.name: w for w in (Golden, ClipAttn, Layout)}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f}
    libs = sorted(p for p in paths if "openblas" in os.path.basename(p).lower() and ".so" in p)
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Loop:
    """One closed-loop phase: op after op until the deadline passes."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.failed = 0
        self.first_failure: str | None = None

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why

    def run(self, work, seconds: float, first_op: int, tracer: Tracer | None = None) -> None:
        clock = time.perf_counter
        deadline = clock() + seconds
        i = first_op
        while clock() < deadline:
            if tracer is not None:
                tracer.op = i
                mark = len(tracer.spans)
            t0 = clock()
            try:
                out = work.op(i)
            except Exception:
                self.walls.append(clock() - t0)
                self.fail(f"op {i} raised: {traceback.format_exc(limit=-1).strip()}")
                i += 1
                continue
            t1 = clock()
            self.walls.append(t1 - t0)
            try:
                why = work.check(i, out)
                if why is None and tracer is not None:
                    why = work.trace_check(
                        i, [(j, tracer.spans[j]) for j in range(mark, len(tracer.spans))])
            except Exception:
                why = f"op {i} check raised: {traceback.format_exc(limit=-1).strip()}"
            del out
            if why is not None:
                self.fail(why)
            i += 1
        if tracer is not None:
            tracer.op = SETUP_OP


def percentiles(walls: list[float]) -> tuple[float, float]:
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    return statistics.median(walls), p90


def child_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup"), default="main")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer(COUNTERS, PEAK_MEMORY)
        tracer.install(PACKAGE, MODULES, METHODS)
    work = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    if tracer is not None:
        tracer.uninstall()
    ready = monotonic()
    result = {"ready": ready, "blas_threads": blas_threads(), "info": work.info}
    if args.role == "setup":
        work.close()
        print(json.dumps(result))
        return 0

    untraced = Loop()
    if tracer is None:
        untraced.run(work, args.seconds, 0)
        loops = [untraced]
    else:
        # half the time untraced for the overhead baseline, half traced
        untraced.run(work, args.seconds / 2, 0)
        traced = Loop()
        tracer.install(PACKAGE, MODULES, METHODS)
        try:
            traced.run(work, args.seconds / 2, len(untraced.walls), tracer)
        finally:
            tracer.uninstall()
        loops = [untraced, traced]
    work.close()

    p50, p90 = percentiles(untraced.walls)
    result.update({
        "attempted": sum(len(lp.walls) for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "first_failure": next((lp.first_failure for lp in loops if lp.first_failure), None),
        "ops": len(untraced.walls),
        "op_s_p50": p50,
        "op_s_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        traced_p50, _ = percentiles(traced.walls)
        result["traced_ops"] = len(traced.walls)
        result["spans"] = len(tracer.spans)
        result["layers"] = layer_metrics(tracer.spans, traced.walls, traced_p50, p50)
        spans_file = Path(args.workdir) / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_file, "w") as f:
            for s in tracer.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.counts]) + "\n")
        result["spans_file"] = str(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
