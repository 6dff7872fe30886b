"""The osp layers as the traced run sees them: which functions are
wrapped, which counts each boundary records, and how spans become the
per-layer metrics.

Unless a metric says otherwise it is a mean per traced op: `.calls` is
calls per op, `.self_s` is seconds of self time per op, and counts are
per op. `attention.oracle.*` are per oracle call over the whole traced
process, set-up included, because clip-attn computes its oracle in
set-up. A ratio whose layer did not run reads 0. Counts marked
"computed" come from call shapes, not from hardware.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import SETUP_OP, Span, self_times

PACKAGE = "osp"
MODULES = ("gridseq", "skiparse", "anyres", "attention", "ssp", "hif8", "mixflow",
           "checks", "cli")
METHODS = {"gridseq.IndexMap": ("apply", "compose", "invert", "identity")}
PEAK_MEMORY = ("skiparse.reachability_hops", "attention.dense_attention",
               "attention.skiparse_reference")

APPLY = "gridseq.IndexMap.apply"
DENSE = "attention.dense_attention"
SPARSE = "attention.skiparse_attention"
ORACLE = "attention.skiparse_reference"
SWITCH = "ssp.ssp_pattern_switch"
A2A = "ssp.all_to_all"

MAP_BUILD = ("gridseq.rearrange_map", "gridseq.IndexMap.identity",
             "gridseq.IndexMap.invert", "gridseq.IndexMap.compose")
PATTERN_MAPS = tuple(f"skiparse.{n}" for n in (
    "pattern_map", "inverse_pattern_map", "orig_to_tsa", "tsa_to_orig", "orig_to_gsa",
    "gsa_to_orig", "tsa_to_gsa", "gsa_to_tsa"))
ORACLE_ROUTE = (ORACLE, "attention.masked_dense_attention", "attention.pattern_allow_matrix")
CHECK_ROUTINES = ("rearrange_checks", "reach_check", "local_equivalence_check",
                  "attention_check", "anyres_check", "ssp_check", "flops_check",
                  "hif8_format_check", "quantizer_check", "probe_check", "sampler_check",
                  "schedule_check")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _attention_macs(t) -> int:
    """MACs of QK^T plus PV over all token pairs of a (batch, seq, chan) tensor."""
    return 2 * t.batch * t.seq * t.seq * t.chan


def _query_macs(args, kwargs, result) -> dict:
    return {"macs": _attention_macs(_arg(args, kwargs, 0, "q"))}


def _cli_report_bytes(args, kwargs, result) -> dict:
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" in argv:
        return {"report_bytes": os.path.getsize(argv[argv.index("--out") + 1])}
    return {}


COUNTERS = {
    # bytes moved by a gather, computed: data read and written plus the index table
    APPLY: lambda a, k, r: {"bytes": 2 * r.data.nbytes + _arg(a, k, 0, "self").src.nbytes},
    DENSE: _query_macs,
    "attention.masked_dense_attention": _query_macs,
    # what full attention over the same tokens would cost
    SPARSE: lambda a, k, r: {"macs": _attention_macs(_arg(a, k, 0, "x"))},
    A2A: lambda a, k, r: {"elems": _arg(a, k, 1, "log").events[-1].payload_per_rank},
    SWITCH: lambda a, k, r: {"shard_elems": _arg(a, k, 0, "group").local_elements},
    "hif8.encode_array": lambda a, k, r: {"values": int(r.size)},
    "hif8.encode": lambda a, k, r: {"values": 1},
    "mixflow.mixed_rollout": lambda a, k, r: {"noise_draws": r.noise_draws},
    "anyres.pad_grid": lambda a, k, r: {"real": r.original.seq_len,
                                        "padded": r.padded.seq_len},
    "cli.main": _cli_report_bytes,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _View:
    """Spans of the traced ops, with their self times, grouped by name."""

    def __init__(self, spans: list[Span], selfs: list[float], n_ops: int) -> None:
        self.n_ops = n_ops
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s.op != SETUP_OP:
                self.by_name[s.name].append(i)
        self.selfs = selfs

    def idx(self, names, parent: str | None = None) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        out = [i for n in names for i in self.by_name.get(n, ())]
        if parent is not None:
            out = [i for i in out
                   if self.spans[i].parent >= 0 and self.spans[self.spans[i].parent].name == parent]
        return out

    def calls(self, names, parent=None) -> float:
        return len(self.idx(names, parent)) / self.n_ops

    def self_s(self, names, parent=None) -> float:
        return sum(self.selfs[i] for i in self.idx(names, parent)) / self.n_ops

    def count(self, names, key: str, parent=None) -> float:
        return sum(self.spans[i].counts.get(key, 0) for i in self.idx(names, parent)) / self.n_ops

    def peak_mb(self, names) -> float:
        return max((self.spans[i].counts.get("peak_bytes", 0) for i in self.idx(names)),
                   default=0) / 2 ** 20


def layer_metrics(spans: list[Span], op_walls: list[float], traced_p50: float,
                  untraced_p50: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run. op_walls are the
    wall times of the traced ops."""
    selfs = self_times(spans)
    v = _View(spans, selfs, len(op_walls))
    m: dict[str, float] = {}

    m["gridseq.map_build.calls"] = v.calls(MAP_BUILD)
    m["gridseq.map_build.self_s"] = v.self_s(MAP_BUILD)
    m["gridseq.apply.calls"] = v.calls(APPLY)
    m["gridseq.apply.self_s"] = v.self_s(APPLY)
    m["gridseq.apply.bytes"] = v.count(APPLY, "bytes")

    m["skiparse.map.self_s"] = v.self_s(PATTERN_MAPS)
    m["skiparse.assign.self_s"] = v.self_s("skiparse.assignment_of")
    m["skiparse.reach.calls"] = v.calls("skiparse.reachability_hops")
    m["skiparse.reach.self_s"] = v.self_s("skiparse.reachability_hops")
    m["skiparse.reach.peak_mb"] = v.peak_mb("skiparse.reachability_hops")

    m["anyres.pad.self_s"] = v.self_s(("anyres.pad_grid", "anyres.pad_tensor",
                                       "anyres.strip_padding"))
    m["anyres.mask.self_s"] = v.self_s("anyres.subsequence_mask")
    m["anyres.real_token_ratio"] = _ratio(v.count("anyres.pad_grid", "real"),
                                          v.count("anyres.pad_grid", "padded"))

    m["attention.project.self_s"] = v.self_s(("attention.project_qkv",
                                              "attention.qkv_projections"))
    m["attention.gather.self_s"] = v.self_s(APPLY, parent=SPARSE)
    m["attention.gather.bytes"] = v.count(APPLY, "bytes", parent=SPARSE)
    m["attention.dense.calls"] = v.calls(DENSE)
    m["attention.dense.self_s"] = v.self_s(DENSE)
    m["attention.dense.macs"] = v.count(DENSE, "macs")
    m["attention.dense.gmac_per_s"] = _ratio(m["attention.dense.macs"],
                                             m["attention.dense.self_s"]) / 1e9
    m["attention.dense.peak_mb"] = v.peak_mb(DENSE)
    m["attention.sparse.self_s"] = v.self_s(SPARSE)
    m["attention.sparse_over_dense_macs"] = _ratio(v.count(DENSE, "macs", parent=SPARSE),
                                                   v.count(SPARSE, "macs"))

    oracle_calls = [i for i, s in enumerate(spans) if s.name == ORACLE]
    route = [i for i, s in enumerate(spans) if s.name in ORACLE_ROUTE]
    n_oracle = len(oracle_calls)
    m["attention.oracle.self_s"] = _ratio(sum(selfs[i] for i in route), n_oracle)
    m["attention.oracle.macs"] = _ratio(
        sum(spans[i].counts.get("macs", 0) for i in route), n_oracle)
    m["attention.oracle.peak_mb"] = max(
        (spans[i].counts.get("peak_bytes", 0) for i in oracle_calls), default=0) / 2 ** 20

    m["ssp.shard.self_s"] = v.self_s(("ssp.shard_pattern_layout", "ssp.gather_shards"))
    m["ssp.switch.calls"] = v.calls(SWITCH)
    m["ssp.switch.self_s"] = v.self_s(SWITCH)
    m["ssp.gather.self_s"] = v.self_s(APPLY, parent=SWITCH)
    m["ssp.all_to_all.calls"] = v.calls(A2A)
    m["ssp.all_to_all.self_s"] = v.self_s(A2A)
    m["ssp.all_to_all.elems"] = v.count(A2A, "elems")
    m["ssp.all_to_all_per_switch"] = _ratio(m["ssp.all_to_all.calls"], m["ssp.switch.calls"])

    encode = ("hif8.encode_array", "hif8.encode")
    m["hif8.encode.calls"] = v.calls(encode)
    m["hif8.encode.values"] = v.count(encode, "values")
    m["hif8.encode.self_s"] = v.self_s(encode)
    m["hif8.encode.mval_per_s"] = _ratio(m["hif8.encode.values"], m["hif8.encode.self_s"]) / 1e6
    m["hif8.decode.self_s"] = v.self_s(("hif8.decode_array", "hif8.decode", "hif8.dequantize"))
    m["hif8.quantize.self_s"] = v.self_s(("hif8.quantize_tensor", "hif8.roundtrip"))

    m["mixflow.rollout.calls"] = v.calls("mixflow.mixed_rollout")
    m["mixflow.rollout.self_s"] = v.self_s("mixflow.mixed_rollout")
    m["mixflow.ode_step.self_s"] = v.self_s("mixflow.ode_step")
    m["mixflow.sde_step.self_s"] = v.self_s("mixflow.sde_step")
    m["mixflow.noise_draws"] = v.count("mixflow.mixed_rollout", "noise_draws")
    m["mixflow.marginal.self_s"] = v.self_s("mixflow.marginal_report")

    for routine in CHECK_ROUTINES:
        m[f"checks.{routine}.self_s"] = v.self_s(f"checks.{routine}")

    m["cli.self_s"] = v.self_s(("cli.main", "cli.build_full_report"))
    m["cli.report_bytes"] = v.count("cli.main", "report_bytes")

    m["trace.overhead_s"] = traced_p50 - untraced_p50
    covered = sum(selfs[i] for idx in v.by_name.values() for i in idx)
    m["trace.coverage"] = _ratio(covered, sum(op_walls))
    return m
