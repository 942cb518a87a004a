import csv
import json
import time

import numpy as np
import pytest

from seglm.cli import main
from seglm.config import preset, toy_config
from seglm.engine import ToyWeights, save_weights
from seglm.kvcache import (MEMSIM_COLUMNS, CacheShapeParams, segment_cache_bytes,
                           standard_cache_bytes)


def run_cli(*argv):
    return main(list(argv))


# -- memsim ---------------------------------------------------------------------

def test_memsim_csv_golden_row(tmp_path):
    out = tmp_path / "mem.csv"
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "32", "--bw", "4",
                   "--n-prompt", "1024", "--n-response", "1024", "--out", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert list(rows[0].keys()) == list(MEMSIM_COLUMNS)
    row = rows[0]
    assert int(row["standard_bytes"]) == 137_438_953_472
    assert int(row["segment_bytes"]) == 85_899_345_920
    assert float(row["ratio"]) == 0.625
    assert int(row["saving_bytes"]) == 51_539_607_552


def test_memsim_json_gb_display(tmp_path, capsys):
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "32", "--bw", "4",
                   "--n-prompt", "1024", "--n-response", "1024", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["standard_gb"] == 137
    assert rows[0]["segment_gb"] == 86
    assert rows[0]["saving_gb"] == 51.5
    assert rows[0]["ratio"] == 0.625


def test_memsim_zero_batch_row(capsys):
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "0", "--format", "json") == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["standard_bytes"] == 0 and row["segment_bytes"] == 0 and row["ratio"] == 0.0


def test_memsim_full_sweep_matches_formula_evaluation(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("memsim", "--bw", "4", "--n-prompt", "1024", "--n-response", "1024",
                   "--out", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 24  # four presets x six batch sizes
    for row in rows:
        cfg = preset(row["model"])
        p = CacheShapeParams(int(row["BS"]), 4, 1024, 1024)
        assert int(row["standard_bytes"]) == standard_cache_bytes(cfg, p)
        assert int(row["segment_bytes"]) == segment_cache_bytes(cfg, p)


def test_memsim_csv_to_stdout(capsys):
    assert run_cli("memsim", "--models", "llama2-13b", "--bs", "16", "--bw", "4",
                   "--n-prompt", "1024", "--n-response", "1024") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert int(rows[0]["standard_bytes"]) == 107_374_182_400


def test_memsim_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("memsim", "--models", "gpt-17")
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [("gen", "--n-resp", "3", "--bw", "1", "--random", "4"),
                                  ("memsim", "--model", "gptj-6b"),
                                  ("gen", "--mode", "greedy")], ids=" ".join)
def test_flag_prefixes_are_usage_errors(capsys, argv):
    """A flag must be spelled in full: a prefix of a real flag, or a deleted
    flag that prefixes one, is not taken for it."""
    with pytest.raises(SystemExit) as e:
        run_cli(*argv)
    assert e.value.code == 2


def test_gen_single_engine_reports(tmp_path):
    for engine in ("optimized", "reference"):
        out = tmp_path / f"{engine}.json"
        assert run_cli("gen", "--engine", engine, "--random", "5",
                       "--n-response", "3", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert engine in report and "match" not in report
        assert report[engine]["counters"]["cat_ops"] == (0 if engine == "optimized" else 12)


# -- gen ------------------------------------------------------------------------

def _strip_timing(report: dict) -> dict:
    report = json.loads(json.dumps(report))
    for key in ("optimized", "reference"):
        if key in report:
            report[key].pop("timing", None)
    return report


def test_gen_both_engines_match(tmp_path):
    out = tmp_path / "gen.json"
    assert run_cli("gen", "--engine", "both", "--random", "8", "--n-response", "6",
                   "--seed", "3", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["match"] is True
    assert len(report["optimized"]["tokens"][0][0]) == 6
    assert report["optimized"]["tokens"] == report["reference"]["tokens"]


def test_gen_zero_response(tmp_path):
    out = tmp_path / "gen0.json"
    assert run_cli("gen", "--engine", "both", "--random", "4", "--n-response", "0",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["match"] is True
    assert report["optimized"]["tokens"] == [[[] for _ in range(4)]]


def test_gen_deterministic_excluding_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("gen", "--engine", "both", "--random", "6", "--n-response", "5", "--seed", "11")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    ra = _strip_timing(json.loads(a.read_text()))
    rb = _strip_timing(json.loads(b.read_text()))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_gen_prompt_file_and_weight_round_trip(tmp_path):
    prompt = tmp_path / "prompt.json"
    prompt.write_text(json.dumps([[1, 2, 3, 4]]))
    wfile = tmp_path / "weights.bin"
    out1 = tmp_path / "r1.json"
    assert run_cli("gen", "--engine", "optimized", "--prompt-file", str(prompt),
                   "--n-response", "4", "--save-weights", str(wfile), "--out", str(out1)) == 0
    out2 = tmp_path / "r2.json"
    assert run_cli("gen", "--engine", "optimized", "--prompt-file", str(prompt),
                   "--n-response", "4", "--weights", str(wfile), "--out", str(out2)) == 0
    t1 = json.loads(out1.read_text())["optimized"]["tokens"]
    t2 = json.loads(out2.read_text())["optimized"]["tokens"]
    assert t1 == t2


# defect -> a word the error message must name
MALFORMED_WEIGHT_FILES = {
    "missing-tensor": "head",
    "nan-weight": "embedding",
    "missing-config": "config",
    "negative-eps": "eps",
    "zero-rope-theta": "rope_theta",
    "activation-field": "activation",
    "fractional-L": "L must be an integer",
    "float-H": "H must be an integer",
    "fractional-step": "step must be an integer",
    "string-max-pos": "max_pos must be an integer",
    "zero-max-pos": "max_pos must be an integer >= 1",
    "float-dtype-bytes": "dtype_bytes must be 2",
    "duplicate-tensor": "tensor 'final_norm' twice",
    "extra-layer": "tensor 'layers.1.",
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_WEIGHT_FILES))
def test_gen_rejects_malformed_weight_file(tmp_path, capsys, defect):
    good = tmp_path / "good.bin"
    save_weights(good, ToyWeights.random(toy_config(), seed=0))
    header_line, blob = good.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    if defect == "missing-tensor":
        header["tensors"] = [t for t in header["tensors"] if t["name"] != "head"]
    elif defect == "nan-weight":  # the embedding is the first tensor in the blob
        blob = np.float32(np.nan).tobytes() + blob[4:]
    elif defect == "missing-config":
        del header["config"]
    elif defect == "negative-eps":
        header["config"]["eps"] = -1.0
    elif defect == "zero-rope-theta":
        header["config"]["rope_theta"] = 0.0
    elif defect == "fractional-L":
        header["config"]["L"] = 2.5
    elif defect == "float-H":
        header["config"]["H"] = 4.0
    elif defect == "fractional-step":
        header["config"]["step"] = 1.5
    elif defect == "string-max-pos":
        header["config"]["max_pos"] = "x"
    elif defect == "zero-max-pos":
        header["config"]["max_pos"] = 0
    elif defect == "float-dtype-bytes":
        header["config"]["dtype_bytes"] = 2.0
    elif defect == "duplicate-tensor":
        header["tensors"] += [t for t in header["tensors"] if t["name"] == "final_norm"]
    elif defect == "extra-layer":  # the blob holds two layers, the config says one
        header["config"]["L"] = 1
    else:  # a header written while the config still had an activation option
        header["config"]["activation"] = "silu"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    assert run_cli("gen", "--weights", str(bad), "--n-response", "2") == 2
    assert MALFORMED_WEIGHT_FILES[defect] in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--model", "gptj-6b"), ("--dtype-bytes", "4"),
                                   ("--dtype-bytes", "2"), ("--L", "2"),
                                   ("--H", "4", "--D", "8"), ("--ff", "32"), ("--vocab", "64")],
                         ids=" ".join)
def test_gen_rejects_model_flags_with_weights(tmp_path, capsys, flags):
    """A weight file fixes the model, so a model flag next to it is an error,
    not silently ignored; the message names the flag and --weights."""
    wfile = tmp_path / "weights.bin"
    save_weights(wfile, ToyWeights.random(toy_config(), seed=0))
    assert run_cli("gen", "--weights", str(wfile), *flags, "--n-response", "2") == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "--weights" in err


def test_gen_invalid_token_ids_usage_error(tmp_path, capsys):
    """Out-of-vocabulary, non-numeric and null ids are usage errors, not tracebacks."""
    prompt = tmp_path / "bad.json"
    for ids, message in (([[9999]], "must lie in"), ([["a", "b"]], "integers"),
                         ([[None, 1]], "integers")):
        prompt.write_text(json.dumps(ids))
        assert run_cli("gen", "--prompt-file", str(prompt), "--n-response", "2") == 2
        assert message in capsys.readouterr().err


def test_gen_fractional_token_ids_usage_error(tmp_path, capsys):
    prompt = tmp_path / "fractional.json"
    prompt.write_text(json.dumps([[1.7, 2.2]]))
    assert run_cli("gen", "--prompt-file", str(prompt), "--n-response", "2") == 2
    assert "integers" in capsys.readouterr().err


def test_gen_greedy_mode(tmp_path):
    """Greedy decoding is beam width 1; the report still names the mode."""
    out = tmp_path / "g.json"
    assert run_cli("gen", "--bw", "1", "--random", "5",
                   "--n-response", "4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["match"] is True
    assert report["request"]["mode"] == "greedy" and report["request"]["bw"] == 1
    assert len(report["optimized"]["tokens"][0]) == 1


# -- bench ----------------------------------------------------------------------

def test_bench_boundary_budget_is_inclusive(capsys):
    cfg = preset("gptj-6b")
    budget = segment_cache_bytes(cfg, CacheShapeParams(4, 4, 1024, 1024))
    assert run_cli("bench", "--model", "gptj-6b", "--budget-bytes", str(budget),
                   "--bw", "4", "--n-prompt", "1024", "--n-response", "1024") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bs_max_segment"] == 4


def test_bench_gptj_tile_budget_inversion(capsys):
    assert run_cli("bench", "--model", "gptj-6b", "--budget-bytes", "64000000000",
                   "--bw", "4", "--n-prompt", "1024", "--n-response", "1024") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bs_max_segment"] == 23
    assert report["bs_max_standard"] == 14


def test_bench_budget_too_small_usage_error(capsys):
    assert run_cli("bench", "--model", "gptj-6b", "--budget-bytes", "1") == 2


# -- fusion report -----------------------------------------------------------------

def test_fusion_report_totals_and_stability(capsys):
    assert run_cli("fusion-report", "--phase", "decode") == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["optimized"]["total"] == 9
    assert report["standard"]["counts"]["by_tag"]["data-movement"] > 0
    assert report["optimized"]["counts"]["by_tag"]["data-movement"] == 0
    assert run_cli("fusion-report", "--phase", "decode") == 0
    assert capsys.readouterr().out == first  # schema and content stable across runs


def test_fusion_report_takes_no_model_flags(capsys):
    """The analysis graph does not depend on the model, so the report has no
    model flags to ignore."""
    for flag in ("--model", "--L", "--dtype-bytes"):
        with pytest.raises(SystemExit) as e:
            run_cli("fusion-report", flag, "4")
        assert e.value.code == 2


def test_fusion_report_prefill(capsys):
    assert run_cli("fusion-report", "--phase", "prefill") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["standard"]["counts"]["by_kind"].get("IndexSelect", 0) == 0
    assert report["optimized"]["total"] == 9


# -- verify -------------------------------------------------------------------------

def test_verify_quick_passes_within_a_minute(capsys):
    t0 = time.perf_counter()
    code = run_cli("verify", "--quick")
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < 60.0
    assert out.count("PASS") == 8
    assert "FAIL" not in out
