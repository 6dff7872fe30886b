import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import shlex
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osp
from oracles import hif8_value_table
from osp import checks, cli
from osp.cli import MAX_ATTN_VALUES, MAX_BLOCKS, MAX_ENSEMBLE, MAX_STEPS, MAX_TOKENS, main
from osp.gridseq import SequenceTensor, random_tensor, read_ospt, write_ospt


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_reach_subcommand(capsys):
    code, payload = _run_json(capsys, ["reach", "--grid", "1,4,4", "--k", "2"])
    assert code == 0
    assert payload["max_hops"] == 2
    assert payload["pass"] is True


def test_reach_on_a_large_grid(capsys):
    code, payload = _run_json(capsys, ["reach", "--grid", "1,400,400"])
    assert code == 0
    assert payload["max_hops"] == 2


def test_out_of_memory_is_an_input_error():
    # a grid under MAX_TOKENS in a child whose own address-space limit is
    # below what rearrange-check needs at 1x512x512 (about 655 MB); one BLAS
    # thread keeps the imports near 105 MB, so the command's arrays fail
    limit = 512 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(osp.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "osp.cli", "rearrange-check",
                           "--grid", "1,512,512"], capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory")
    assert "Traceback" not in proc.stderr


# (a command at a cap, the same command just over it): each first grid pads
# to exactly MAX_TOKENS or scores exactly MAX_ATTN_SCORES pairs, and 2016 is
# the largest --chan whose 64 tokens and projection fit MAX_ATTN_VALUES
_AT_AND_OVER_CAP = {
    "reach": (["reach", "--grid", "1,512,512"], ["reach", "--grid", "1,512,513"]),
    "mask-dump": (["mask-dump", "--grid", "1,509,510"],
                  ["mask-dump", "--grid", "1,509,510", "--k", "3"]),
    "comm-sim": (["comm-sim", "--grid", "1,512,512", "--k", "4"],
                 ["comm-sim", "--grid", "1,512,512", "--k", "3"]),
    "attn-verify-scores": (["attn-verify", "--grid", "1,256,256", "--chan", "1"],
                           ["attn-verify", "--grid", "1,256,260", "--chan", "1"]),
    "attn-verify-original-scores": (
        ["attn-verify", "--grid", "1,128,256", "--chan", "1", "--pattern", "original"],
        ["attn-verify", "--grid", "1,128,260", "--chan", "1", "--pattern", "original"]),
    "attn-verify-values": (["attn-verify", "--grid", "1,8,8", "--chan", "2016"],
                           ["attn-verify", "--grid", "1,8,8", "--chan", "2017"]),
}


_GRID_CHECKS = ("rearrange_checks", "reach_check", "attention_check", "ssp_check")


def _stub_grid_checks(monkeypatch) -> list:
    """Stand-ins for the grid subcommands' checks, which record each call."""
    calls = []
    for name in _GRID_CHECKS:
        monkeypatch.setattr(checks, name, lambda *args, **kwargs: calls.append(args) or
                            {"pass": True})
    return calls


@pytest.mark.parametrize("argv", [at for at, _ in _AT_AND_OVER_CAP.values()],
                         ids=list(_AT_AND_OVER_CAP))
def test_a_grid_at_its_cap_runs(argv, monkeypatch, capsys):
    calls = _stub_grid_checks(monkeypatch)
    assert main(argv) == 0, capsys.readouterr().err
    assert len(calls) == (argv[0] != "mask-dump")


@pytest.mark.parametrize("argv", [over for _, over in _AT_AND_OVER_CAP.values()] + [
    ["rearrange-check", "--grid", "4,256,257"],
    ["mask-dump", "--grid", "1,100000,100000"],
    ["reach", "--grid", "1,1,1", "--k", "1000000"],
    ["attn-verify", "--chan", str(10 ** 12)],
], ids=[*_AT_AND_OVER_CAP, "rearrange-check", "huge-grid", "huge-k", "huge-chan"])
def test_a_grid_over_its_cap_exits_2_and_allocates_nothing(argv, monkeypatch, capsys):
    calls = _stub_grid_checks(monkeypatch)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert calls == []
    assert re.fullmatch(r"error: .* more than MAX_\w+ = \d+\n", capsys.readouterr().err)
    assert peak < 2 ** 20


def test_a_grid_of_max_tokens_passes(capsys):
    code, payload = _run_json(capsys, ["reach", "--grid", "1,512,512"])
    assert 512 * 512 == MAX_TOKENS
    assert code == 0
    assert payload["max_hops"] == 2


def test_comm_sim_counts(capsys):
    code, payload = _run_json(capsys, [
        "comm-sim", "--group-size", "4", "--grid", "1,8,8", "--k", "2", "--blocks", "3",
    ])
    assert code == 0
    assert payload["comparison"]["ssp_events"] == 3
    assert payload["comparison"]["ulysses_events"] == 12
    assert payload["comparison"]["volume_ratio"] == 0.25
    assert payload["pass"] is True
    assert payload["checks"] == {
        "switches_match_oracle": True,
        "one_all_to_all_per_block": True,
        "one_shard_per_event": True,
        "volume_ratio_one_quarter": True,
    }


@pytest.mark.parametrize("argv", [
    ["--group-size", "8"],
    ["--grid", "1,6,6", "--k", "2"],
], ids=["group-size-over-k-squared", "h-not-multiple-of-k-squared"])
def test_comm_sim_impossible_configuration_is_usage_error(argv, capsys):
    assert main(["comm-sim", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["comm-sim"],
    ["comm-sim", "--group-size", "2"],
], ids=" ".join)
def test_double_traffic_fails_the_ledger_checks(argv, monkeypatch, capsys):
    real = osp.ssp.all_to_all

    def all_to_all(shape, log):
        # the right buffers arrive, but every one is shipped twice
        received = real(shape, osp.ssp.CommLog())
        log.record("all_to_all", 2 * math.prod(shape[1:]))
        return received

    monkeypatch.setattr(osp.ssp, "all_to_all", all_to_all)
    assert main(argv) == 1
    assert capsys.readouterr().err == "FAIL: one_shard_per_event, volume_ratio_one_quarter\n"


def test_second_report_all_misses_no_memo():
    # a second report-all in one process builds no map, plan or projection again
    memos = (osp.skiparse._build_layout_map, osp.ssp._switch_plan, osp.attention._projections,
             osp.attention._layout_rows)
    for memo in memos:
        memo.cache_clear()
    checks.build_full_report(7)
    misses = [memo.cache_info().misses for memo in memos]
    checks.build_full_report(7)
    assert [memo.cache_info().misses for memo in memos] == misses


def test_hif8_enum_rows(capsys):
    code = main(["hif8", "enum"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 257
    exps = {r[2] for r in rows[1:] if r[2] != ""}
    assert len(exps) == 38
    widths = {e: 3 if -3 <= e <= 3 else 2 if e in (-5, -4, 4, 5, 6) else 1
              for e in range(-22, 16)}
    assert [float(r[5]) for r in rows[1:]] == hif8_value_table(widths)
    for code, (code_hex, sign, exp, width, frac, value) in enumerate(rows[1:]):
        assert code_hex == f"0x{code:02X}"
        if float(value) == 0.0:
            assert (sign, exp, width, frac) == ("0", "", "", "")
            continue
        e, m, f = int(exp), int(width), int(frac)
        assert m == widths[e] and 0 <= f < 2 ** m
        assert float(value) == int(sign) * (1 + f / 2 ** m) * 2.0 ** e


def test_hif8_encode(capsys):
    code, payload = _run_json(capsys, ["hif8", "encode", "--value", "1.0"])
    assert code == 0
    assert payload["decoded"] == 1.0
    assert payload["abs_err"] == 0.0


def test_hif8_quantize_roundtrip(tmp_path, capsys):
    src = tmp_path / "x.ospt"
    dst = tmp_path / "xq.ospt"
    x = random_tensor(1, 16, 4, seed=3)
    write_ospt(src, x)
    code = main(["hif8", "quantize", "--mode", "forward",
                 "--input", str(src), "--output", str(dst)])
    assert code == 0
    sidecar = json.loads((tmp_path / "xq.ospt.json").read_text())
    assert sidecar["mode"] == "forward"
    assert sidecar["amax"] == pytest.approx(float(np.max(np.abs(x.data))))
    back = read_ospt(dst)
    assert back.data.shape == x.data.shape
    # dequantized values re-encode to the same codes, so nothing was lost
    from osp.hif8 import encode_array
    assert np.array_equal(encode_array(back.data * sidecar["scale"]),
                          encode_array(x.data * sidecar["scale"]))


def test_attn_verify_padded_grid(capsys):
    code, payload = _run_json(capsys, [
        "attn-verify", "--grid", "1,5,6", "--k", "2", "--pattern", "gsa",
    ])
    assert code == 0
    assert payload["padded"] is True
    assert payload["max_abs_err"] <= 1e-10


def test_rearrange_check_includes_assignments(capsys):
    code, payload = _run_json(capsys, ["rearrange-check", "--grid", "1,4,4", "--k", "2"])
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["assignments"]["tsa"]) == 16
    assert {row["subsequence"] for row in payload["assignments"]["gsa"]} == {0, 1, 2, 3}


def test_mask_dump_writes_binary(tmp_path, capsys):
    out = tmp_path / "mask.bin"
    code, payload = _run_json(capsys, [
        "mask-dump", "--grid", "1,5,6", "--k", "2", "--out", str(out),
    ])
    assert code == 0
    assert payload["real_tokens"] == 30
    raw = out.read_bytes()
    assert len(raw) == 16 + 64


def test_sampler_writes_csv_and_verdict(tmp_path, capsys):
    out = tmp_path / "steps.csv"
    code, payload = _run_json(capsys, [
        "sampler", "--steps", "5", "--sde-steps", "2", "--ensemble", "500",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert payload["pass"] is True
    assert payload["noise_draws"] == 2 * 2 * 500
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["t", "dim", "mean", "var", "ref_mean", "ref_var"]
    assert len(rows) == 13  # header + 6 recorded steps of 2 dimensions
    assert [r[1] for r in rows[1:3]] == ["0", "1"]


def test_sampler_of_one_member_passes_with_warnings_as_errors(tmp_path, capsys):
    # one member has no sample variance: ddof=1 would warn, and -W error
    # would turn the warning into an exit 1
    out = tmp_path / "steps.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = _run_json(capsys, ["sampler", "--ensemble", "1", "--out", str(out)])
    assert code == 0
    assert payload["pass"] is True
    assert all("var" not in row for row in payload["marginals"]["steps"])
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 1 + 26 * 2 and all(r[3] == "" for r in rows[1:])


def test_bad_grid_is_usage_error(capsys):
    assert _run_code(["reach", "--grid", "1,4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("OSP_SEED", "123")
    code, payload = _run_json(capsys, ["sampler", "--steps", "2", "--sde-steps", "0",
                                       "--ensemble", "16", "--seed", "9"])
    assert code == 0
    assert payload["seed"] == 123


@pytest.mark.parametrize("argv,config,env,error", [
    (["--seed", "-1"], "", None, "argument --seed: must be a non-negative integer, got '-1'"),
    ([], "seed = x", None, "argument --seed: must be a non-negative integer, got 'x'"),
    ([], "", "x", "error: OSP_SEED must be a non-negative integer, got 'x'"),
], ids=["flag", "config", "env"])
def test_bad_seed_is_named_before_any_check_runs(argv, config, env, error, tmp_path,
                                                 monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    monkeypatch.delenv("OSP_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("OSP_SEED", env)
    monkeypatch.setattr(checks, "build_full_report", mock.Mock(side_effect=AssertionError))
    assert _run_code(["--config", str(cfg), "report-all", *argv]) == 2
    err = capsys.readouterr().err
    assert error in err
    assert "Traceback" not in err


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\ngrid = 1,9,9\nk = 3\n")
    code, payload = _run_json(capsys, ["--config", str(cfg), "reach"])
    assert code == 0
    assert payload["grid"] == [1, 9, 9] and payload["k"] == 3
    code, payload = _run_json(capsys, ["--config", str(cfg), "reach", "--k", "3",
                                       "--grid", "1,18,18"])
    assert payload["grid"] == [1, 18, 18]
    # a flag equal to its parser default still beats the file
    cfg.write_text("seed = 3\n")
    code, payload = _run_json(capsys, ["--config", str(cfg), "sampler", "--steps", "2",
                                       "--sde-steps", "0", "--ensemble", "16", "--seed", "7"])
    assert code == 0
    assert payload["seed"] == 7


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["--config", str(cfg), "reach"]) == 2


def test_config_line_without_equals_names_its_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nseed 3\n")
    assert main(["--config", str(cfg), "reach"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key = value\n"


@pytest.mark.parametrize("argv", [
    ["comm-sim", "--group-size", "0"],
    ["comm-sim", "--group-size", "-2"],
    ["comm-sim", "--blocks", "0"],
    ["attn-verify", "--chan", "0"],
    ["attn-verify", "--chan", "two"],
], ids=" ".join)
def test_count_flags_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "positive integer" in err


def test_config_count_value_validated_like_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group_size = 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "comm-sim"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,argv", [
    ("ensemble", "0", ["sampler"]),
    ("pattern", "foo", ["attn-verify"]),
    ("grid", "1,8", ["reach"]),
    ("grid", "1,x,8", ["reach"]),
    ("steps", "0", ["sampler"]),
    ("sde_steps", "-1", ["sampler"]),
], ids=["count", "word", "grid-short", "grid-word", "steps", "sde-steps"])
def test_bad_config_value_names_its_file_line_and_key(key, value, argv, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# defaults\n{key} = {value}\n")
    assert _run_code(["--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: config key {key!r}: argument {flag}:" in err
    assert "Traceback" not in err
    # the same value as a flag is the flag's fault, and no file is named
    assert _run_code([*argv, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert str(cfg) not in err and "config" not in err


def _ospt_header(batch, seq, chan, version=1):
    return b"OSPT" + bytes([version]) + struct.pack("<III", batch, seq, chan)


@pytest.mark.parametrize("raw,error", [
    (_ospt_header(2 ** 31 - 1, 1, 1), "OSPT header declares"),
    (_ospt_header(1, 4, 2) + bytes(8 * 7), "OSPT header declares"),
    (_ospt_header(1, 4, 2) + bytes(8 * 8 + 1), "OSPT header declares"),
    (_ospt_header(1, 4, 2)[:10], "shorter than its 17-byte header"),
    (_ospt_header(1, 4, 2, version=2) + bytes(8 * 8), "unsupported OSPT version b'\\x02'"),
], ids=["huge-header", "short-payload", "trailing-byte", "short-header", "version-2"])
def test_quantize_rejects_inconsistent_ospt(raw, error, tmp_path, capsys):
    src = tmp_path / "x.ospt"
    src.write_bytes(raw)
    code = main(["hif8", "quantize", "--mode", "forward",
                 "--input", str(src), "--output", str(tmp_path / "xq.ospt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and error in err
    assert not (tmp_path / "xq.ospt").exists()


def test_quantize_reports_an_ospt_shorter_than_its_header(tmp_path, capsys):
    src = tmp_path / "x.ospt"
    src.write_bytes(b"OSPT")
    code = main(["hif8", "quantize", "--mode", "forward",
                 "--input", str(src), "--output", str(tmp_path / "xq.ospt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "OSPT file of 4 bytes is shorter than its 17-byte header" in err
    assert "version" not in err
    assert not (tmp_path / "xq.ospt").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_quantize_rejects_non_finite_ospt(bad, tmp_path, capsys):
    src = tmp_path / "x.ospt"
    write_ospt(src, SequenceTensor(np.array([[[1.0], [bad]]])))
    code = main(["hif8", "quantize", "--mode", "backward",
                 "--input", str(src), "--output", str(tmp_path / "xq.ospt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "xq.ospt").exists()


@pytest.mark.parametrize("config,flags,expected", [
    ("", ["--blocks", str(MAX_BLOCKS + 1)], 2),
    ("blocks = 100000000", [], 2),
    ("", ["--blocks", str(MAX_BLOCKS)], 0),
], ids=["flag-over-cap", "config-over-cap", "at-cap"])
def test_blocks_are_capped(config, flags, expected, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    switch, calls = checks.ssp_pattern_switch, []

    def counted_switch(*args, **kwargs):
        calls.append(1)
        assert expected == 0, "a switch ran for --blocks above the cap"
        return switch(*args, **kwargs)

    monkeypatch.setattr(checks, "ssp_pattern_switch", counted_switch)
    assert _run_code(["--config", str(cfg), "comm-sim", *flags]) == expected
    assert len(calls) == (MAX_BLOCKS if expected == 0 else 0)
    if expected:
        assert "error:" in capsys.readouterr().err


def _check_sampler_cap(config, flags, expected, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    rollout, calls = checks.mixed_rollout, []

    def counted_rollout(*args, **kwargs):
        calls.append(1)
        assert expected == 0, f"a rollout ran for a count above its cap: {flags or config}"
        return rollout(*args, **kwargs)

    monkeypatch.setattr(checks, "mixed_rollout", counted_rollout)
    assert _run_code(["--config", str(cfg), "sampler", *flags]) == expected
    assert bool(calls) == (expected == 0)
    if expected:
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("config,flags,expected", [
    ("", ["--steps", str(MAX_STEPS + 1)], 2),
    ("steps = 100000000", [], 2),
    ("", ["--steps", str(MAX_STEPS), "--ensemble", "2", "--sde-steps", "0"], 0),
], ids=["flag-over-cap", "config-over-cap", "at-cap"])
def test_steps_are_capped(config, flags, expected, tmp_path, capsys, monkeypatch):
    _check_sampler_cap(config, flags, expected, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("config,flags,expected", [
    ("", ["--ensemble", str(MAX_ENSEMBLE + 1)], 2),
    ("ensemble = 100000000", [], 2),
    ("", ["--ensemble", str(MAX_ENSEMBLE), "--steps", "2", "--sde-steps", "1"], 0),
], ids=["flag-over-cap", "config-over-cap", "at-cap"])
def test_ensemble_is_capped(config, flags, expected, tmp_path, capsys, monkeypatch):
    _check_sampler_cap(config, flags, expected, tmp_path, capsys, monkeypatch)


def test_assertion_failure_exits_1_and_names_invariant(capsys, monkeypatch):
    failing = {"grid": [1, 4, 4], "k": 2, "max_hops": 3,
               "checks": {"max_hops_at_most_two": False}, "pass": False}
    monkeypatch.setattr(checks, "reach_check", lambda g: failing)
    code = main(["reach", "--grid", "1,4,4", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "max_hops_at_most_two" in captured.err


# checks in a list of cases, at two depths of one section (its own before
# those of a key written ahead of them) and a section that raised
_HAND_BUILT_REPORT = {"seed": 7, "sections": {
    "rearrange": {"grids": [{"grid": [1, 4, 4], "checks": {"a": True, "b": False}, "pass": False},
                            {"grid": [1, 8, 8], "checks": {"a": True, "b": True}, "pass": True}],
                  "pass": False},
    "ssp": {"raised": "ProtocolError: shard seq 4 != subsequence length 0", "pass": False},
    "sampler": {"steps": 25, "moments": {"checks": {"d": True}, "halving": 1.8},
                "checks": {"c": False}, "pass": False},
}, "pass": False}


def test_check_paths_walks_a_report_depth_first():
    assert checks.check_paths(_HAND_BUILT_REPORT) == [
        ("sections.rearrange.grids.0.a", True),
        ("sections.rearrange.grids.0.b", False),
        ("sections.rearrange.grids.1.a", True),
        ("sections.rearrange.grids.1.b", True),
        ("sections.ssp raised ProtocolError: shard seq 4 != subsequence length 0", False),
        ("sections.sampler.c", False),
        ("sections.sampler.moments.d", True),
    ]


def test_fail_line_names_every_false_check_path_in_order(capsys, monkeypatch):
    monkeypatch.setattr(checks, "build_full_report", lambda seed: _HAND_BUILT_REPORT)
    assert main(["report-all"]) == 1
    assert capsys.readouterr().err == (
        "FAIL: sections.rearrange.grids.0.b, sections.ssp raised ProtocolError: shard seq 4 "
        "!= subsequence length 0, sections.sampler.c\n")


@pytest.mark.parametrize("argv,command,owner,name", [
    (["reach"], "reach", checks, "reachability_hops"),
    (["hif8", "encode", "--value", "1.5"], "hif8 encode", cli, "encode"),
], ids=["reach", "hif8-encode"])
def test_internal_error_fails_its_command_without_a_traceback(argv, command, owner, name,
                                                              capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("mutant")

    monkeypatch.setattr(owner, name, broken)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"FAIL: {command} raised IndexError: mutant\n"


def test_report_all_sections_pass(tmp_path):
    out = tmp_path / "report.json"
    assert main(["report-all", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert set(payload["sections"]) >= {
        "rearrange", "reachability", "local_equivalence", "attention", "anyres",
        "ssp", "flops", "hif8_format", "quantizer", "sampler",
        "layer_schedule",
    }


def test_calls_in_one_process_leave_report_all_unchanged(tmp_path, capsys, monkeypatch):
    # the default parser and the map and projection memos live for the process;
    # a config run sets seed = 3, which a leaking default would carry over
    monkeypatch.delenv("OSP_SEED", raising=False)
    first, second, cfg = tmp_path / "1.json", tmp_path / "2.json", tmp_path / "run.cfg"
    cfg.write_text("seed = 3\ngroup_size = 2\nblocks = 2\n")
    assert main(["report-all", "--out", str(first)]) == 0
    assert main(["attn-verify", "--grid", "1,5,6", "--pattern", "gsa"]) == 0
    assert main(["--config", str(cfg), "comm-sim"]) == 0
    assert main(["report-all", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def _readme_examples() -> list[list[str]]:
    """Every `osp ...` line of the sh block under the README's CLI heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
            if line.startswith("osp ")]


def test_readme_examples_exit_zero(tmp_path, monkeypatch, capsys):
    write_ospt(tmp_path / "x.ospt", random_tensor(1, 16, 4, seed=3))
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) >= 10
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()


def _run_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("config,argv", [
    ("pattern = foo", ["attn-verify"]),
    ("ensemble = 0", ["sampler"]),
    ("", ["sampler", "--ensemble", "0"]),
    ("sde_steps = -1", ["sampler", "--ensemble", "4"]),
    ("", ["sampler", "--steps", "2", "--sde-steps", "3", "--ensemble", "4"]),
], ids=["pattern", "ensemble-config", "ensemble-flag", "sde-steps-negative",
        "sde-steps-over-steps"])
def test_off_list_and_zero_values_are_usage_errors(config, argv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    assert _run_code(["--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# Drawn option values for the exit-code contract. Sizes stay small (grid
# dims <= 12, k <= 3, ensemble and steps <= 12) so each run is quick;
# off-list words, zero and negative numbers are always among the draws, and
# so are counts above their cap, which must stop before anything runs.
# Options argparse requires are always set, as flags (a config value does
# not satisfy `required`), so every draw can reach the command body.
_JUNK = st.sampled_from(["", "x", "1.5", "-", "1,2"])
_EDGE = st.sampled_from(["0", "-1", "1"])
_SMALL = st.one_of(_EDGE, st.integers(-3, 12).map(str), _JUNK)
_SEED = st.one_of(_EDGE, st.integers(-2, 3).map(str), _JUNK)
_GRID = st.one_of(
    st.tuples(st.integers(-1, 2), st.integers(-1, 12), st.integers(-1, 12))
    .map(lambda dims: ",".join(map(str, dims))),
    st.sampled_from(["", "1,4", "1,4,4,4", "a,b,c", "1, 4, x"]))
_K = st.one_of(_EDGE, st.integers(-1, 3).map(str), _JUNK)


def _count_over(cap):
    """Counts above cap, and whether a drawn value is one."""
    return st.integers(cap + 1, 10 ** 12).map(str), lambda v: v.isdigit() and int(v) > cap


def _grid_over(cap):
    """Grids of more than cap tokens before padding, and whether a drawn grid is one."""
    def over(v):
        return re.fullmatch(r"\d+,\d+,\d+", v) is not None and math.prod(
            map(int, v.split(","))) > cap
    return (st.tuples(st.integers(1, 2), st.integers(cap + 1, 10 ** 12), st.integers(1, 12))
            .map(lambda dims: ",".join(map(str, dims))), over)


# a frame pads to at least k^2 by k^2 tokens, and attn-verify's projection
# holds chan^2 values, so a k or chan over these is over its cap on any grid
_CAPS = {"blocks": _count_over(MAX_BLOCKS), "steps": _count_over(MAX_STEPS),
         "ensemble": _count_over(MAX_ENSEMBLE), "grid": _grid_over(MAX_TOKENS),
         "k": _count_over(math.isqrt(math.isqrt(MAX_TOKENS))),
         "chan": _count_over(math.isqrt(MAX_ATTN_VALUES))}


def _over_cap(name):
    return _CAPS[name][0]


def _words(*words):
    return st.one_of(st.sampled_from(words), st.sampled_from(["", "foo", "TSA", "0"]))


_GRID_OPTIONS = {"grid": st.one_of(_GRID, _over_cap("grid")),
                 "k": st.one_of(_K, _over_cap("k"))}
_COMMANDS = {
    ("rearrange-check",): {**_GRID_OPTIONS, "seed": _SEED},
    ("reach",): _GRID_OPTIONS,
    ("mask-dump",): {**_GRID_OPTIONS, "out": st.sampled_from(["mask.bin", ""])},
    ("attn-verify",): {**_GRID_OPTIONS, "seed": _SEED,
                       "chan": st.one_of(_SMALL, _over_cap("chan")),
                       "pattern": _words("original", "tsa", "gsa")},
    ("comm-sim",): {**_GRID_OPTIONS, "seed": _SEED, "group_size": _SMALL,
                    "blocks": st.one_of(_SMALL, _over_cap("blocks"))},
    ("hif8", "enum"): {},
    ("hif8", "encode"): {"value": st.one_of(
        st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e308", "-1e-300", "x", ""]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr))},
    ("hif8", "quantize"): {"mode": _words("forward", "backward"),
                           "input": st.sampled_from(["x.ospt", "zero.ospt", "short.ospt",
                                                     "empty.ospt", "missing.ospt", "nan.ospt",
                                                     "inf.ospt"]),
                           "output": st.sampled_from(["y.ospt", "no-dir/y.ospt"])},
    ("sampler",): {"steps": st.one_of(_SMALL, _over_cap("steps")), "sde_steps": _SMALL,
                   "ensemble": st.one_of(_SMALL, _over_cap("ensemble")), "seed": _SEED},
    ("report-all",): {"seed": _SEED},
}


_REQUIRED = {"value", "mode", "input", "output"}


def _subcommand_options(parser, command=()):
    """(command, option names) for every subcommand parser below `parser`,
    each name as an argparse dest, leaving out --help and --out."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _subcommand_options(sub, (*command, name))
    if not subparsers:
        yield command, {a.dest for a in parser._actions
                        if a.option_strings and a.dest not in ("help", "out")}


def test_exit_code_contract_draws_every_option():
    # an option missing from _COMMANDS is never drawn by the contract test below
    for command, options in _subcommand_options(cli._build_parser()):
        assert options <= set(_COMMANDS.get(command, ())), (command, options)


def _write_inputs(root: Path) -> None:
    write_ospt(root / "x.ospt", random_tensor(1, 6, 2, seed=1))
    write_ospt(root / "zero.ospt", random_tensor(0, 0, 0, seed=1))
    (root / "short.ospt").write_bytes((root / "x.ospt").read_bytes()[:-3])
    (root / "empty.ospt").write_bytes(b"")
    write_ospt(root / "nan.ospt", SequenceTensor(np.array([[[1.0], [np.nan]]])))
    write_ospt(root / "inf.ospt", SequenceTensor(np.array([[[1.0], [-np.inf]]])))


@pytest.mark.parametrize("command", sorted(_COMMANDS), ids=" ".join)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_exit_code_contract_holds_for_drawn_options(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root)
        flags, config, over_cap = [], [], False
        for name, values in _COMMANDS[command].items():
            required = name in _REQUIRED
            if not required and not data.draw(st.booleans(), label=f"set {name}"):
                continue
            value = data.draw(values, label=name)
            over_cap |= name in _CAPS and _CAPS[name][1](value)
            if name in ("out", "input", "output") and value:
                value = str(root / value)
            if not required and data.draw(st.booleans(), label=f"{name} in config"):
                config.append(f"{name} = {value}")
            else:
                flags.append(f"--{name.replace('_', '-')}={value}")
        argv = [*command, *flags]
        if config:
            (root / "run.cfg").write_text("\n".join(config) + "\n")
            argv = ["--config", str(root / "run.cfg"), *argv]

        def guarded(owner, name):
            run = getattr(owner, name)

            def call(*args, **kwargs):
                assert not over_cap, f"{name} ran for a count above its cap: {argv}"
                return run(*args, **kwargs)
            return mock.patch.object(owner, name, call)

        with contextlib.ExitStack() as stack:
            for name in ("ssp_pattern_switch", "mixed_rollout", *_GRID_CHECKS):
                stack.enter_context(guarded(checks, name))
            stack.enter_context(guarded(cli, "pad_grid"))
            code = _run_code(argv)
    assert code in (0, 1, 2), argv
    assert code == 2 or not over_cap, argv


def test_report_all_leaves_numpy_ma_unimported():
    # numpy.ma costs every cold report-all about 19 ms of import
    script = ("import sys\nfrom osp.checks import build_full_report\n"
              "assert build_full_report(7)['pass']\nprint('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(osp.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_report_all_starts_no_thread_and_leaves_concurrent_futures_unimported(tmp_path):
    # every gather of report-all is under gridseq.SPLIT_BYTES; the split
    # pool's import (concurrent.futures pulls in logging) and its threads
    # would add to every cold run's set-up time and peak RSS
    argv = ["report-all", "--seed", "7", "--out", str(tmp_path / "r.json")]
    script = ("import sys, threading\nimport osp.cli\n"
              f"code = osp.cli.main({argv!r})\n"
              "print(code, threading.active_count(), 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(osp.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1 False"
