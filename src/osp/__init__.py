"""Desk-scale verification kit for skip-sparse 2-D attention rearranges,
sparse sequence parallelism, HiF8 quantization and mixed ODE/SDE sampling."""

from .gridseq import (GridShape, IndexMap, SequenceTensor, random_tensor,
                      read_ospt, rearrange_map, write_ospt)
from .skiparse import (PatternAssignment, SparsePattern, assignment_of, build_layer_schedule,
                       gsa_to_orig, gsa_to_tsa, orig_to_gsa, orig_to_tsa, pattern_map,
                       reachability_hops, tsa_to_gsa, tsa_to_orig)
from .anyres import PaddedGrid, pad_grid, pad_tensor, strip_padding, subsequence_mask
from .attention import (FlopReport, dense_attention, flop_report, skiparse_attention,
                        skiparse_reference)
from .ssp import (CommLog, ProcessGroup, RankShard, all_to_all, exchange_map,
                  shard_pattern_layout, ssp_pattern_switch)
from .hif8 import QuantizedTensor, decode, dequantize, encode, quantize_tensor
from .mixflow import (OuProcess, RolloutResult, SamplerSchedule, marginal_report,
                      mixed_rollout, ode_step, sde_step, uniform_schedule)

__version__ = "0.1.0"
