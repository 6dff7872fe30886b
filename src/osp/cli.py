"""Command-line entry point: every verification as a subcommand with
machine-readable output. Verdicts come from `osp.checks`; this module only
parses arguments, formats output and maps verdicts to exit codes. It reads
no key of a report but "pass": the failed checks it names come from
`checks.check_paths`, the one walker of a report's named checks.

Exit codes: 0 all embedded assertions pass, 1 an assertion failed (the
failing invariant is named on stderr), 2 usage or configuration error: a
ValueError or OSError, a count or grid over its cap (checked before any
array exists), or running out of memory. Any other exception is a
broken mechanism, not bad input, and fails with exit 1 and one
`FAIL: <command> raised <Type>: <message>` line; in report-all, whose
only input is a checked seed, the section that raised fails as that
section.
The OSP_SEED environment variable overrides --seed; an optional flat
key=value config file supplies defaults that flags override.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import checks
from .anyres import pad_grid, write_mask
from .gridseq import GridShape, read_ospt, write_ospt
from .hif8 import code_fields, decode, dequantize, encode, quantize_tensor
from .skiparse import SparsePattern, assignment_of

DEFAULT_SEED = 7
# comm-sim runs one real pattern switch per block (1000 blocks take about
# 0.2 s), so a larger count is a usage error, not a run of hours
MAX_BLOCKS = 1024
# sampler runs one Python-level step per step and prints one JSON row each
# (1024 steps take about 0.07 s in-process, 0.3 s with interpreter start-up,
# and print 485 KB at the default ensemble of 256), so a larger count is a
# usage error, not a run of hours
MAX_STEPS = 1024
# mixed_rollout keeps every snapshot and marginal_report copies them members
# last, each (steps + 1) * ensemble * 2 float64: at MAX_STEPS, 2**15 members
# hold about 1.07 GB in both arrays, so a larger ensemble is a usage error,
# not an out-of-memory kill
MAX_ENSEMBLE = 2 ** 15
# every grid subcommand is bounded by its padded token count: at 2**18
# (1x512x512) rearrange-check, which prints each token's place in both
# patterns, takes about 655 MB and 5.7 s, comm-sim 89 MB and 5.3 s at
# MAX_BLOCKS, reach and mask-dump under 75 MB and 0.4 s, so a larger grid is
# a usage error, not an out-of-memory kill
MAX_TOKENS = 2 ** 18
# attn-verify scores every pair of tokens that share a subsequence, once on
# the sparse path and once in the oracle: 2**30 pairs (1x256x256, or
# 1x512x512 at k = 8) take 9.5-15.5 s, and 2**34 take 139 s even at --chan 1
MAX_ATTN_SCORES = 2 ** 30
# and holds a few float64 arrays of (tokens, chan) and of (chan, chan), the
# q, k and v projections: at 2**22 values of one of each, 1x256x256 at
# --chan 64 and 1x64x64 at --chan 1024 peak at 276-299 MB, 1x8x8 at
# --chan 2016 at 139 MB
MAX_ATTN_VALUES = 2 ** 22


class UsageError(ValueError):
    pass


def _load_config(path: str) -> dict[str, tuple[int, str]]:
    """Each key of a flat key = value file, with its line number and value."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = (lineno, value.strip())
    return values


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _finish(out: str | None, payload: dict) -> int:
    """Emit the JSON payload; exit 0 on pass, otherwise 1 with every failed
    check named on stderr."""
    _emit(out, _dump_json(payload))
    if payload.get("pass", True):
        return 0
    names = [path for path, ok in checks.check_paths(payload) if not ok] or ["pass"]
    print(f"FAIL: {', '.join(names)}", file=sys.stderr)
    return 1


def _padded_tokens(t: int, h: int, w: int, k: int) -> int:
    """T * ceil(H / k^2) k^2 * ceil(W / k^2) k^2, the token count pad_grid
    gives the grid, counted in integers before any array exists."""
    unit = k * k
    return t * -(-h // unit) * unit * -(-w // unit) * unit


def _grid_shape(args) -> GridShape:
    """The grid of --grid and --k, which must pad to at most MAX_TOKENS."""
    tokens = _padded_tokens(*args.grid, args.k)
    if tokens > MAX_TOKENS:
        raise UsageError(f"--grid {','.join(map(str, args.grid))} at --k {args.k} pads to "
                         f"{tokens} tokens, more than MAX_TOKENS = {MAX_TOKENS}")
    return GridShape(*args.grid, args.k)


def _cmd_rearrange_check(args) -> int:
    g = _grid_shape(args)
    payload = checks.rearrange_checks(g, args.seed)
    assignments = [assignment_of(g, p) for p in (SparsePattern.TOKEN_WISE,
                                                  SparsePattern.GROUP_WISE)]
    payload["assignments"] = {
        a.pattern.value: [{"token": i, "subsequence": sub, "position": pos} for i, (sub, pos)
                          in enumerate(zip(a.subseq.tolist(), a.position.tolist()))]
        for a in assignments
    }
    return _finish(args.out, payload)


def _cmd_reach(args) -> int:
    return _finish(args.out, checks.reach_check(_grid_shape(args)))


def _cmd_mask_dump(args) -> int:
    g = _grid_shape(args)
    pg = pad_grid(g)
    if args.out:
        write_mask(args.out, pg)
    return _finish(None, {
        "grid": [g.t, g.h, g.w],
        "k": g.k,
        "padded_grid": [pg.padded.t, pg.padded.h, pg.padded.w],
        "real_tokens": int(pg.mask.sum()),
        "pad_tokens": int((~pg.mask).sum()),
        "trivial": pg.trivial,
        "pass": True,
    })


def _cmd_attn_verify(args) -> int:
    g, pattern = _grid_shape(args), SparsePattern(args.pattern)
    tokens = _padded_tokens(g.t, g.h, g.w, g.k)
    # the pattern's subsequences share the padded tokens equally
    scores = tokens * tokens // (1 if pattern is SparsePattern.ORIGINAL else g.k * g.k)
    if scores > MAX_ATTN_SCORES:
        raise UsageError(f"{pattern.value} attention on {tokens} tokens scores {scores} pairs, "
                         f"more than MAX_ATTN_SCORES = {MAX_ATTN_SCORES}")
    values = (tokens + args.chan) * args.chan
    if values > MAX_ATTN_VALUES:
        raise UsageError(f"{tokens} tokens and a projection at --chan {args.chan} hold {values} "
                         f"values, more than MAX_ATTN_VALUES = {MAX_ATTN_VALUES}")
    return _finish(args.out, checks.attention_check(g, pattern, args.seed, chan=args.chan))


def _cmd_comm_sim(args) -> int:
    return _finish(args.out, checks.ssp_check(_grid_shape(args), args.group_size, args.seed,
                                              blocks=args.blocks))


def _cmd_hif8_enum(args) -> int:
    header = ["code_hex", "sign", "exponent", "mantissa_width", "fraction", "value"]
    rows = []
    for code in range(256):
        f = code_fields(code)
        fields = ["" if f[name] is None else f[name] for name in header[2:5]]
        rows.append([f"0x{code:02X}", f["sign"], *fields, repr(f["value"])])
    _emit(args.out, _csv_text(header, rows))
    return 0


def _cmd_hif8_encode(args) -> int:
    code = encode(args.value)
    payload = {
        "value": args.value,
        "code": code,
        "code_hex": f"0x{code:02X}",
        "decoded": decode(code),
        "abs_err": abs(decode(code) - args.value),
        "pass": True,
    }
    return _finish(args.out, payload)


def _cmd_hif8_quantize(args) -> int:
    x = read_ospt(args.input)
    q = quantize_tensor(x, args.mode)
    write_ospt(args.output, dequantize(q))
    sidecar = args.output + ".json"
    Path(sidecar).write_text(_dump_json({"scale": q.scale, "mode": q.mode, "amax": q.amax}))
    return _finish(None, {
        "input": args.input, "output": args.output, "sidecar": sidecar,
        "scale": q.scale, "mode": q.mode, "amax": q.amax, "pass": True,
    })


def _cmd_sampler(args) -> int:
    if args.sde_steps > args.steps:
        raise UsageError(f"--sde-steps {args.sde_steps} is more than --steps {args.steps}")
    payload = checks.sampler_check(args.seed, args.steps, args.sde_steps, args.ensemble)
    if args.out:
        # one row per snapshot and dimension; var is empty for one member
        rows = [[repr(s["t"]), d, repr(s["mean"][d]), repr(s["var"][d]) if "var" in s else "",
                 repr(s["ref_mean"][d]), repr(s["ref_var"][d])]
                for s in payload["marginals"]["steps"] for d in range(len(s["mean"]))]
        Path(args.out).write_text(
            _csv_text(["t", "dim", "mean", "var", "ref_mean", "ref_var"], rows))
    return _finish(None, payload)


def _cmd_report_all(args) -> int:
    return _finish(args.out, checks.build_full_report(args.seed))


def _positive_int(text: str, most: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if most is not None and value > most:
        raise argparse.ArgumentTypeError(f"expected at most {most}, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """A count that may be zero, or a seed as the PCG64 generators take it."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _grid(text: str) -> tuple[int, int, int]:
    """T,H,W: three positive integers."""
    parts = text.split(",")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        dims = ()
    if len(dims) != 3 or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"expected T,H,W as three positive integers, "
                                         f"got {text!r}")
    return dims


def _add_choice(p: argparse.ArgumentParser, flag: str, words: tuple[str, ...], **kwargs) -> None:
    """An option limited to a fixed set of words. argparse checks `choices`
    only on the command line but applies `type` to string defaults too, so
    the check lives in `type` and config-file values meet the same rule."""
    def word(text: str) -> str:
        if text not in words:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(words)}, got {text!r}")
        return text
    p.add_argument(flag, type=word, choices=words, **kwargs)


def _build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser. Config values become string defaults of every
    subcommand, so argparse converts and validates them like flag values
    and an explicit flag always wins. A parser built with config values
    raises argparse.ArgumentError on a bad value instead of exiting, so the
    caller can name the file, line and key it came from."""
    make = functools.partial(argparse.ArgumentParser, exit_on_error=config is None)
    parser = make(
        prog="osp",
        description="verification subcommands for the sparse rearrange, "
                    "parallelism, quantization and sampling mechanisms",
    )
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    defaults = config or {}
    sub = parser.add_subparsers(dest="command", required=True, parser_class=make)

    def add_common(p):
        p.add_argument("--grid", type=_grid, default="1,8,8", help="T,H,W latent grid")
        p.add_argument("--k", type=_positive_int, default=2, help="sparse ratio (skip interval)")
        p.add_argument("--out", help="write the report here instead of stdout")

    def add_seed(p):
        p.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED)

    p = sub.add_parser("rearrange-check", help="pattern map round-trips and coherence")
    add_common(p)
    add_seed(p)
    p.set_defaults(func=_cmd_rearrange_check, **defaults)

    p = sub.add_parser("reach", help="two-hop reachability on the (TSA id, GSA id) matrix")
    add_common(p)
    p.set_defaults(func=_cmd_reach, **defaults)

    p = sub.add_parser("mask-dump", help="padding mask summary and binary dump")
    add_common(p)
    p.set_defaults(func=_cmd_mask_dump, **defaults)

    p = sub.add_parser("attn-verify", help="sparse attention vs masked dense oracle")
    add_common(p)
    add_seed(p)
    _add_choice(p, "--pattern", tuple(s.value for s in SparsePattern), default="tsa")
    p.add_argument("--chan", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_attn_verify, **defaults)

    p = sub.add_parser("comm-sim", help="collective counts and volumes per block")
    add_common(p)
    add_seed(p)
    p.add_argument("--group-size", type=_positive_int, default=4)
    p.add_argument("--blocks", type=lambda text: _positive_int(text, MAX_BLOCKS), default=1)
    p.set_defaults(func=_cmd_comm_sim, **defaults)

    p = sub.add_parser("hif8", help="8-bit codec utilities")
    hif8_sub = p.add_subparsers(dest="hif8_command", required=True, parser_class=make)

    pe = hif8_sub.add_parser("enum", help="dump the full code/value table as CSV")
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_hif8_enum, **defaults)

    pc = hif8_sub.add_parser("encode", help="encode one value")
    pc.add_argument("--value", type=float, required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_hif8_encode, **defaults)

    pq = hif8_sub.add_parser("quantize", help="quantize an OSPT tensor file")
    _add_choice(pq, "--mode", ("forward", "backward"), required=True)
    pq.add_argument("--input", required=True)
    pq.add_argument("--output", required=True)
    pq.set_defaults(func=_cmd_hif8_quantize, **defaults)

    p = sub.add_parser("sampler", help="mixed SDE/ODE rollout marginal check")
    p.add_argument("--steps", type=lambda text: _positive_int(text, MAX_STEPS), default=25)
    p.add_argument("--sde-steps", type=_non_negative_int, default=10)
    p.add_argument("--ensemble", type=lambda text: _positive_int(text, MAX_ENSEMBLE),
                   default=256)
    add_seed(p)
    p.add_argument("--out", help="per-step CSV path")
    p.set_defaults(func=_cmd_sampler, **defaults)

    p = sub.add_parser("report-all", help="run every verification, one JSON report")
    add_seed(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report_all, **defaults)

    return parser


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    """The parser without config defaults, built once per process: parsing
    leaves it unchanged, so every `main` call can share it."""
    return _build_parser()


_NOT_OPTIONS = {"config", "command", "hif8_command", "func"}


def main(argv: list[str] | None = None) -> int:
    parser = _default_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            path, config = args.config, _load_config(args.config)
            for key, (lineno, _) in config.items():
                if key not in vars(args) or key in _NOT_OPTIONS:
                    raise UsageError(f"{path}:{lineno}: config key {key!r} does not match "
                                     f"any option")
            try:
                args = _build_parser({key: value for key, (_, value) in config.items()}
                                     ).parse_args(argv)
            except argparse.ArgumentError as exc:
                # the same flags parsed without config values, so the value is the file's
                key = exc.argument_name.removeprefix("--").replace("-", "_")
                parser.error(f"{path}:{config[key][0]}: config key {key!r}: {exc}")
        if "OSP_SEED" in os.environ and hasattr(args, "seed"):
            try:
                args.seed = _non_negative_int(os.environ["OSP_SEED"])
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"OSP_SEED {exc}") from None
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not an input error, so a broken mechanism: named, as report-all names a section
        command = " ".join(filter(None, (args.command, getattr(args, "hif8_command", None))))
        print(f"FAIL: {command} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
