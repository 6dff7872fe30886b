"""One-shot baseline table; not a workload and not gated.

  python3 perfbench/baseline.py [--seconds 20]

Times skiparse_attention (TSA, C=64) best-of-3 on three named grids and
encode_array on 4M values, and prints each beside the reference figures
recorded for the unmodified kit on a 2-core VM with numpy 2.4.6 and
OpenBLAS. Then runs the clip-attn workload once in a child process
limited to one BLAS thread: the single-threaded reference for the
default-threaded benchmark runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from types import SimpleNamespace

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import osp  # noqa: E402
from osp.hif8 import encode_array  # noqa: E402

ATTENTION_CASES = (  # (t, h, w, k), reference ms
    ((1, 64, 64, 2), 392.0),
    ((4, 32, 32, 2), 380.0),
    ((1, 64, 64, 4), 151.0),
)
ENCODE_VALUES = 4 * 2 ** 20
ENCODE_REFERENCE_MVAL_S = 10.5
CHAN = 64
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def best_of(n: int, fn) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds of the single-thread clip-attn run")
    args = ap.parse_args(argv)

    rows = []
    for (t, h, w, k), ref_ms in ATTENTION_CASES:
        g = osp.GridShape(t, h, w, k)
        x = osp.random_tensor(1, g.seq_len, CHAN, 0)
        s = best_of(3, lambda: osp.skiparse_attention(x, g, osp.SparsePattern.TOKEN_WISE))
        rows.append((f"skiparse_attention tsa {t}x{h}x{w} k={k} C={CHAN}", "ms",
                     1e3 * s, ref_ms))
    values = np.random.Generator(np.random.PCG64(0)).standard_normal(ENCODE_VALUES) * 4.0
    s = best_of(3, lambda: encode_array(values))
    rows.append((f"encode_array {ENCODE_VALUES} values", "Mval/s",
                 ENCODE_VALUES / s / 1e6, ENCODE_REFERENCE_MVAL_S))

    print(f"{'case':44s} {'unit':7s} {'now':>10s} {'reference':>10s} {'now/ref':>8s}")
    for name, unit, now, ref in rows:
        print(f"{name:44s} {unit:7s} {now:10.1f} {ref:10.1f} {now / ref:8.2f}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    single = run.run(SimpleNamespace(workload="clip-attn", seed=0, seconds=args.seconds, trace=0),
                     spec, env=ONE_THREAD)
    threads = single["details"]["env"]["blas_threads"]
    print(f"clip-attn with {threads} BLAS thread(s) (reference, not gated):")
    for name, m in single["line"]["metrics"].items():
        print(f"  {name:16s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"rows": rows, "single_thread_clip_attn": single}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
