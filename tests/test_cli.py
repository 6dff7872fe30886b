import csv
import io
import json
import struct

import numpy as np
import pytest

from osp import checks
from osp.cli import main
from osp.gridseq import random_tensor, read_ospt, write_ospt


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_reach_subcommand(capsys):
    code, payload = _run_json(capsys, ["reach", "--grid", "1,4,4", "--k", "2"])
    assert code == 0
    assert payload["max_hops"] == 2
    assert payload["pass"] is True


def test_comm_sim_counts(capsys):
    code, payload = _run_json(capsys, [
        "comm-sim", "--group-size", "4", "--grid", "1,8,8", "--k", "2", "--blocks", "3",
    ])
    assert code == 0
    assert payload["ssp_events"] == 3
    assert payload["ulysses_events"] == 12
    assert payload["volume_ratio"] == 0.25
    assert payload["protocol"]["pass"] is True


def test_comm_sim_csv_format(capsys):
    code = main(["comm-sim", "--group-size", "4", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["group_size", "ssp_global", "naive_global", "naive_over_ssp"]
    assert len(rows) == 4


def test_hif8_enum_rows(capsys):
    code = main(["hif8", "enum"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 257
    exps = {r[2] for r in rows[1:] if r[2] != ""}
    assert len(exps) == 38


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
    assert rows[0] == ["t", "mean", "var", "analytic_mean", "analytic_var"]
    assert len(rows) == 7  # header + 6 recorded steps


def test_bad_grid_is_usage_error(capsys):
    assert main(["reach", "--grid", "1,4"]) == 2
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


@pytest.mark.parametrize("argv", [
    ["comm-sim", "--group-size", "0"],
    ["comm-sim", "--group-size", "-2"],
    ["comm-sim", "--blocks", "0"],
    ["comm-sim", "--chan", "0"],
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


def _ospt_header(batch, seq, chan):
    return b"OSPT" + bytes([1]) + struct.pack("<III", batch, seq, chan)


@pytest.mark.parametrize("raw", [
    _ospt_header(2 ** 31 - 1, 1, 1),
    _ospt_header(1, 4, 2) + bytes(8 * 7),
    _ospt_header(1, 4, 2) + bytes(8 * 8 + 1),
    _ospt_header(1, 4, 2)[:10],
], ids=["huge-header", "short-payload", "trailing-byte", "short-header"])
def test_quantize_rejects_inconsistent_ospt(raw, tmp_path, capsys):
    src = tmp_path / "x.ospt"
    src.write_bytes(raw)
    code = main(["hif8", "quantize", "--mode", "forward",
                 "--input", str(src), "--output", str(tmp_path / "xq.ospt")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "xq.ospt").exists()


def test_assertion_failure_exits_1_and_names_invariant(capsys, monkeypatch):
    failing = {"grid": [1, 4, 4], "k": 2, "max_hops": 3,
               "checks": {"max_hops_at_most_two": False}, "pass": False}
    monkeypatch.setattr(checks, "reach_check", lambda g: failing)
    code = main(["reach", "--grid", "1,4,4", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "max_hops_at_most_two" in captured.err


def test_report_all_sections_pass(tmp_path):
    out = tmp_path / "report.json"
    assert main(["report-all", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert set(payload["sections"]) >= {
        "rearrange", "reachability", "local_equivalence", "attention", "anyres",
        "ssp", "communication", "flops", "hif8_format", "quantizer", "sampler",
        "layer_schedule",
    }
