import csv
import json
import re
import shlex
import time
from math import prod
from pathlib import Path

import numpy as np
import pytest

import seglm
from seglm import engine, verify
from seglm.cli import main
from seglm.config import preset, toy_config
from seglm.engine import ToyWeights, save_weights, weight_layout
from seglm.kvcache import (MEMSIM_COLUMNS, CacheShapeParams, segment_cache_bytes,
                           standard_cache_bytes)


def run_cli(*argv):
    return main(list(argv))


# -- memsim ---------------------------------------------------------------------

def test_memsim_csv_golden_row(tmp_path):
    out = tmp_path / "mem.csv"
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "32", "--bw", "4",
                   "--n-prompt", "1024", "--n-response", "1024", "--out", str(out)) == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0].keys()) == list(MEMSIM_COLUMNS)
    assert "dtype_bytes" not in rows[0]  # the fp16 width is a constant, not a column
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


@pytest.mark.parametrize("argv", [("memsim", "--models", "gptj-6b", "--bs", "2", "--n-prompt", "8",
                                   "--n-response", "8"),
                                  ("memsim", "--models", "gptj-6b", "--budget-bytes", "64000000000")],
                         ids=["memsim", "memsim-budget"])
def test_zero_beam_width_is_a_usage_error_naming_bw(capsys, argv):
    """A batch item holds at least one beam; --bw 0 would price a cache of
    zero standard bytes and a negative saving."""
    assert run_cli(*argv, "--bw", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bw must be >= 1" in captured.err


@pytest.mark.parametrize("flags", [("--bs", "-1"), ("--bs", "4", "-1"), ("--n-prompt", "-5"),
                                   ("--n-response", "-1"), ("--budget-bytes", "-1")],
                         ids=" ".join)
def test_memsim_negative_count_is_a_usage_error_naming_it(tmp_path, capsys, flags):
    """A negative batch size, token count or byte budget is refused naming its
    flag, before ``--out`` is opened."""
    out = tmp_path / "mem.csv"
    assert run_cli("memsim", "--models", "gptj-6b", *flags, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flags[0]} must be >= 0, got {flags[-1]}" in captured.err
    assert not out.exists()


def test_memsim_budget_boundary_is_inclusive(capsys):
    cfg = preset("gptj-6b")
    budget = segment_cache_bytes(cfg, CacheShapeParams(4, 4, 1024, 1024))
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "1", "--budget-bytes", str(budget),
                   "--bw", "4", "--n-prompt", "1024", "--n-response", "1024",
                   "--format", "json") == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["bs_max_segment"] == 4


def test_memsim_budget_gptj_tile_inversion(capsys):
    """The budget columns follow MEMSIM_COLUMNS, whose values do not change."""
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "32", "--bw", "4",
                   "--n-prompt", "1024", "--n-response", "1024",
                   "--budget-bytes", "64000000000") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert tuple(rows[0]) == MEMSIM_COLUMNS + ("budget_bytes", "bs_max_segment",
                                               "bs_max_standard")
    row = rows[0]
    assert int(row["standard_bytes"]) == 137_438_953_472
    assert int(row["segment_bytes"]) == 85_899_345_920
    assert int(row["budget_bytes"]) == 64_000_000_000
    assert int(row["bs_max_segment"]) == 23
    assert int(row["bs_max_standard"]) == 14


def test_memsim_budget_too_small_usage_error(capsys):
    """A budget that cannot hold BS=1 of any listed model is an error, even
    when another listed model fits (8e9 bytes holds gptj-6b, not bloom-176b)."""
    assert run_cli("memsim", "--models", "gptj-6b", "--budget-bytes", "1") == 2
    assert "too small for batch size 1" in capsys.readouterr().err
    shape = ("--bw", "4", "--n-prompt", "1024", "--n-response", "1024")
    assert run_cli("memsim", "--models", "gptj-6b", "--budget-bytes", "8000000000", *shape) == 0
    capsys.readouterr()
    assert run_cli("memsim", "--models", "gptj-6b", "bloom-176b",
                   "--budget-bytes", "8000000000", *shape) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bloom-176b: budget of 8000000000 bytes" in captured.err


def test_memsim_budget_only_segment_fits(capsys):
    """A budget that holds BS=1 of the segment cache (2684354560 bytes) but
    not of the standard one (4294967296) reports bs_max_standard 0."""
    assert run_cli("memsim", "--models", "gptj-6b", "--bs", "1", "--bw", "4",
                   "--n-prompt", "1024", "--n-response", "1024",
                   "--budget-bytes", "3000000000", "--format", "json") == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["segment_bytes"] == 2_684_354_560 and row["standard_bytes"] == 4_294_967_296
    assert row["bs_max_segment"] == 1
    assert row["bs_max_standard"] == 0


@pytest.mark.parametrize("cmd", ["gen", "memsim"])
def test_dtype_bytes_flag_is_gone(capsys, cmd):
    """The fp16 accounting width is ``kvcache.DTYPE_BYTES``, a constant, so
    no command takes a flag for it."""
    with pytest.raises(SystemExit) as e:
        run_cli(cmd, "--dtype-bytes", "2")
    assert e.value.code == 2
    assert "unrecognized arguments: --dtype-bytes 2" in capsys.readouterr().err


def test_bench_command_is_gone(capsys):
    """memsim --budget-bytes is the one command that inverts the cache bytes."""
    with pytest.raises(SystemExit) as e:
        run_cli("bench", "--model", "gptj-6b", "--budget-bytes", "64000000000")
    assert e.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_memsim_full_sweep_matches_formula_evaluation(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("memsim", "--bw", "4", "--n-prompt", "1024", "--n-response", "1024",
                   "--out", str(out)) == 0
    with out.open() as f:
        rows = list(csv.DictReader(f))
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
        assert report[engine]["groups"] == 1  # one item is one range, in the caller


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
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert r1["optimized"]["tokens"] == r2["optimized"]["tokens"]
    assert (r1["request"]["seed"], r2["request"]["seed"]) == (0, None)  # the second drew nothing


def test_gen_rejects_seed_with_weights_and_prompt_file(tmp_path, capsys):
    """With both files nothing is drawn, so --seed would be ignored; with
    either file alone it draws the other's part, and the report records it."""
    prompt = tmp_path / "prompt.json"
    prompt.write_text(json.dumps([[1, 2, 3]]))
    wfile = tmp_path / "weights.bin"
    save_weights(wfile, ToyWeights.random(toy_config(), seed=0))
    assert run_cli("gen", "--weights", str(wfile), "--prompt-file", str(prompt),
                   "--seed", "5", "--n-response", "2") == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--weights" in err and "--prompt-file" in err
    for source in (("--weights", str(wfile)), ("--prompt-file", str(prompt))):
        out = tmp_path / "out.json"
        assert run_cli("gen", *source, "--seed", "5", "--n-response", "2", "--out", str(out)) == 0
        assert json.loads(out.read_text())["request"]["seed"] == 5


# config fields that are now constants of ops or the engine, with the value
# every header written while they were fields held
LEGACY_CONFIG_FIELDS = {"dtype_bytes": 2, "eps": 1e-5, "max_pos": 4096, "rope_style": "half",
                        "rope_theta": 10000.0}

# defect -> a word the error message must name, besides the file's path
MALFORMED_WEIGHT_FILES = {
    "empty-file": "malformed header",
    "non-utf8-header": "malformed header",
    "nan-weight": "embedding",
    "missing-config": "config",
    "activation-field": "activation",
    "fractional-L": "L must be an integer",
    "float-H": "H must be an integer",
    "legacy-step": "'step'",
    "legacy-file": "'dtype_bytes'",  # the first legacy field in the header's sorted keys
    "legacy-dtype-bytes": "'dtype_bytes'",
    "legacy-rope-style": "'rope_style'",
    "legacy-eps": "'eps'",
    "legacy-max-pos": "'max_pos'",
    "legacy-rope-theta": "'rope_theta'",
    "top-level-seed": "'seed'",
    "top-level-unknown-key": "'comment'",
    "parent-format": "'tensors'",
    "overlapping-offset": "'tensors'",
    "input-major-projections": "'tensors'",
    "truncated-blob": "end inside tensor 'head'",
    "missing-tensor": "end inside tensor 'head'",
    "duplicate-tensor": "holds 256 bytes past the last tensor",  # final_norm: 64 floats
    "extra-layer": "bytes past the last tensor of its config (L=1)",
    "trailing-bytes": "holds 8 bytes past the last tensor",
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_WEIGHT_FILES))
def test_gen_rejects_malformed_weight_file(tmp_path, capsys, defect):
    good = tmp_path / "good.bin"
    save_weights(good, ToyWeights.random(toy_config(), seed=0))
    header_line, blob = good.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    if defect in ("parent-format", "overlapping-offset", "input-major-projections"):
        # as saved with a manifest of the config's layout; it is refused
        # whatever the manifest says, so a defect in it cannot be misread
        offset, header["tensors"] = 0, []
        for name, shape in weight_layout(toy_config()):
            header["tensors"].append({"name": name, "offset": offset, "shape": list(shape)})
            offset += 4 * prod(shape)
        if defect == "overlapping-offset":  # final_norm would read the embedding's first row
            header["tensors"][-2]["offset"] = header["tensors"][0]["offset"]
        elif defect == "input-major-projections":  # as saved while projections were [in, out]
            weights = dict(ToyWeights.random(toy_config(), seed=0).tensors)
            for t in header["tensors"]:
                if len(t["shape"]) == 2 and t["name"] != "embedding":
                    t["shape"].reverse()
                    weights[t["name"]] = weights[t["name"]].T
            blob = b"".join(weights[t["name"]].astype("<f4").tobytes() for t in header["tensors"])
    elif defect == "missing-tensor":  # the blob stops where head would start
        blob = blob[:-4 * prod(dict(weight_layout(toy_config()))["head"])]
    elif defect == "duplicate-tensor":  # final_norm written twice, before head
        shapes = dict(weight_layout(toy_config()))
        head_start = len(blob) - 4 * prod(shapes["head"])
        norm_bytes = blob[head_start - 4 * prod(shapes["final_norm"]):head_start]
        blob = blob[:head_start] + norm_bytes + blob[head_start:]
    elif defect == "nan-weight":  # the embedding is the first tensor in the blob
        blob = np.float32(np.nan).tobytes() + blob[4:]
    elif defect == "missing-config":
        del header["config"]
    elif defect == "fractional-L":
        header["config"]["L"] = 2.5
    elif defect == "float-H":
        header["config"]["H"] = 4.0
    elif defect == "legacy-step":  # a header written while the config carried the growth quantum
        header["config"]["step"] = 16
    elif defect == "legacy-file":  # a header as saved while the config had those fields
        header["config"].update(LEGACY_CONFIG_FIELDS)
        header["seed"] = 0
    elif defect.startswith("legacy-"):
        field = defect[len("legacy-"):].replace("-", "_")
        header["config"][field] = LEGACY_CONFIG_FIELDS[field]
    elif defect == "top-level-seed":  # the draw's seed, once written back into the header
        header["seed"] = 0
    elif defect == "top-level-unknown-key":
        header["comment"] = "toy weights"
    elif defect == "truncated-blob":
        blob = blob[:-4]
    elif defect == "extra-layer":  # the blob holds two layers, the config says one
        header["config"]["L"] = 1
    elif defect == "trailing-bytes":
        blob += bytes(8)
    elif defect == "activation-field":  # written while the config had an activation option
        header["config"]["activation"] = "silu"
    data = json.dumps(header, sort_keys=True).encode() + b"\n" + blob
    bad = tmp_path / "bad.bin"
    bad.write_bytes({"empty-file": b"", "non-utf8-header": b"\xff" + data}.get(defect, data))
    assert run_cli("gen", "--weights", str(bad), "--n-response", "2") == 2
    err = capsys.readouterr().err
    assert MALFORMED_WEIGHT_FILES[defect] in err and str(bad) in err


def test_gen_rejects_weights_whose_hidden_state_overflows_rmsnorm(tmp_path, capsys):
    """A valid file whose embedding is all 3e38 squares to inf in the first
    rmsnorm, and one whose head is all 3e38 gives logits of inf - inf; each
    run fails naming the non-finite value instead of emitting tokens from
    all-tied logits. The runtime's own check reports it: numpy prints no
    RuntimeWarning first, which pytest's warnings-as-errors setting would
    raise instead."""
    for tensor, message in (("embedding", "overflows float32"),
                            ("head", "log-probs row 0 holds NaN or +inf")):
        weights = ToyWeights.random(toy_config(), seed=0)
        getattr(weights, tensor)[:] = 3e38
        path = tmp_path / f"huge-{tensor}.bin"
        save_weights(path, weights)
        for engine_name in ("optimized", "reference"):
            assert run_cli("gen", "--weights", str(path), "--engine", engine_name,
                           "--n-response", "2") == 2
            assert message in capsys.readouterr().err, (tensor, engine_name)


def test_gen_rejects_weight_header_claiming_a_billion_layers(tmp_path, capsys):
    """The loader walks the header's layout only as far as the blob reaches,
    so a small file cannot make it work or allocate in proportion to L."""
    bad = tmp_path / "huge-L.bin"
    config = {"L": 10 ** 9, "H": 4, "D": 16, "ff_dim": 128, "vocab": 64}
    embedding = bytes(4 * 64 * 64)  # 16 KiB, the one tensor before layer 0
    bad.write_bytes(json.dumps({"config": config}).encode() + b"\n" + embedding)
    t0 = time.perf_counter()
    assert run_cli("gen", "--weights", str(bad), "--n-response", "2") == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "inside tensor 'layers.0.rmsnorm_1'" in err and "L=1000000000" in err


def test_gen_unwritable_out_fails_before_generating(tmp_path, capsys, monkeypatch):
    """``--out`` is opened before the engines run, so a path that cannot be
    written exits 2 at once instead of after the whole run."""
    def refuse(self, request):
        raise AssertionError("generate ran before --out was opened")

    monkeypatch.setattr(engine.OptimizedEngine, "generate", refuse)
    monkeypatch.setattr(engine.ReferenceEngine, "generate", refuse)
    directory = tmp_path / "a-directory"
    directory.mkdir()
    assert run_cli("gen", "--n-response", "512", "--random", "256", "--out", str(directory)) == 2
    assert str(directory) in capsys.readouterr().err


@pytest.mark.parametrize("request_args,message", [
    (("--prompt-file", "PROMPT"), "must lie in"),  # id 999 outside the vocabulary of 64
    (("--n-response", "5000"), "maximum position"),  # prompt plus response beyond MAX_POS
    (("--bw", "65"), "cannot fill 65 beams"),  # more beams than the vocabulary of 64 fills
    (("--seed", "-1", "--prompt-file", "PROMPT"), "--seed must be >= 0"),  # checked first
    (("--random", "-1"), "--random must be >= 1, got -1"),
    (("--random", "0"), "--random must be >= 1, got 0"),
    (("--bs", "-1"), "--bs must be >= 1, got -1"),
    (("--bs", "0"), "--bs must be >= 1, got 0"),
], ids=["out-of-vocab", "beyond-max-pos", "bw-over-vocab", "negative-seed", "negative-random",
        "zero-random", "negative-bs", "zero-bs"])
def test_gen_rejected_request_leaves_existing_out_unchanged(tmp_path, capsys, request_args,
                                                            message):
    """A request the engine rejects, a negative seed or a count flag below its
    minimum fails before ``--out`` is opened, so an existing file there keeps
    its bytes."""
    prompt = tmp_path / "prompt.json"
    prompt.write_text("[[1, 2, 999]]")
    out = tmp_path / "out.json"
    out.write_text('{"old": 1}\n')
    argv = [str(prompt) if arg == "PROMPT" else arg for arg in request_args]
    assert run_cli("gen", *argv, "--out", str(out)) == 2
    assert out.read_bytes() == b'{"old": 1}\n'
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("written,read", [
    ("--out", "--weights"), ("--out", "--prompt-file"), ("--out", "--save-weights"),
    ("--save-weights", "--weights"), ("--save-weights", "--prompt-file"),
], ids=lambda flag: flag[2:])
def test_gen_refuses_to_overwrite_a_file_it_reads_or_writes(tmp_path, capsys, written, read):
    """``--out`` or ``--save-weights`` naming the same file as ``--weights``,
    ``--prompt-file`` or each other (here through a symlink) exits 2 naming
    both flags, before any file is read or written."""
    shared = tmp_path / "shared"
    if read == "--prompt-file":
        shared.write_text("[[1, 2, 3, 4]]")
    else:  # a weight file the run could load
        save_weights(shared, ToyWeights.random(toy_config(), seed=0))
    before = shared.read_bytes()
    link = tmp_path / "link"
    link.symlink_to(shared)
    assert run_cli("gen", "--engine", "optimized", "--n-response", "2",
                   written, str(shared), read, str(link)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "name the same file" in err
    assert written in err and read in err
    assert shared.read_bytes() == before


@pytest.mark.parametrize("argv", [("gen", "--n-response", "1", "--out"),
                                  ("memsim", "--bs", "1", "--out"),
                                  ("gen", "--n-response", "1", "--weights"),
                                  ("gen", "--n-response", "1", "--prompt-file"),
                                  ("gen", "--n-response", "1", "--save-weights")],
                         ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_directory_path_is_a_usage_error_naming_it(tmp_path, capsys, argv):
    """A path that cannot be read or written exits 2 naming it, not with a
    traceback."""
    directory = tmp_path / "a-directory"
    directory.mkdir()
    assert run_cli(*argv, str(directory)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(directory) in err


@pytest.mark.parametrize("flags", [("--L", "2"), ("--H", "4", "--D", "8"), ("--ff", "32"),
                                   ("--vocab", "64")],
                         ids=" ".join)
def test_gen_rejects_model_flags_with_weights(tmp_path, capsys, flags):
    """A weight file fixes the model, so a model flag next to it is an error,
    not silently ignored; the message names the flag and --weights."""
    wfile = tmp_path / "weights.bin"
    save_weights(wfile, ToyWeights.random(toy_config(), seed=0))
    assert run_cli("gen", "--weights", str(wfile), *flags, "--n-response", "2") == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "--weights" in err


def test_gen_rejects_accounting_only_presets(monkeypatch, capsys):
    """Presets serve only memsim's accounting, and their weights would take
    GBs, so gen has no --model flag: argparse rejects one before any weights
    are drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("weights drawn for an accounting-only preset")

    monkeypatch.setattr(ToyWeights, "random", refuse)
    with pytest.raises(SystemExit) as e:
        run_cli("gen", "--model", "llama2-13b", "--n-response", "2")
    assert e.value.code == 2
    assert "unrecognized arguments: --model llama2-13b" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["optimized", "reference"])
@pytest.mark.parametrize("n_response", ["0", "3"])
def test_gen_rejects_vocab_smaller_than_beam_width(capsys, engine, n_response):
    assert run_cli("gen", "--L", "2", "--H", "4", "--D", "16", "--vocab", "2", "--bw", "4",
                   "--engine", engine, "--n-response", n_response) == 2
    assert "vocabulary of 2 cannot fill 4 beams" in capsys.readouterr().err


def test_gen_odd_head_dim_is_a_usage_error_naming_d(tmp_path, capsys):
    saved = tmp_path / "w.npz"
    assert run_cli("gen", "--H", "3", "--D", "5", "--n-response", "2",
                   "--save-weights", str(saved)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "D=5" in captured.err
    assert not saved.exists()  # refused before anything is written


@pytest.mark.parametrize("flags", [("--bs", "4"), ("--random", "32")], ids=" ".join)
def test_gen_rejects_random_prompt_flags_with_prompt_file(tmp_path, capsys, flags):
    prompt = tmp_path / "prompt.json"
    prompt.write_text(json.dumps([[1, 2, 3]]))
    assert run_cli("gen", "--prompt-file", str(prompt), *flags, "--n-response", "2") == 2
    assert flags[0] in capsys.readouterr().err


TOY_CONFIG = {"L": 2, "H": 4, "D": 16, "ff_dim": 128, "vocab": 64}


# model flags -> the config fields they change from TOY_CONFIG
MODEL_FLAG_CASES = [
    (("--L", "1"), {"L": 1}),
    (("--H", "2"), {"H": 2, "ff_dim": 64}),  # the default ff_dim is 2*H*D
    (("--D", "8"), {"D": 8, "ff_dim": 64}),
    (("--ff", "12"), {"ff_dim": 12}),
    (("--vocab", "32"), {"vocab": 32}),
    (("--L", "1", "--H", "2", "--D", "4", "--ff", "12", "--vocab", "32"),
     {"L": 1, "H": 2, "D": 4, "ff_dim": 12, "vocab": 32}),
]


@pytest.mark.parametrize("flags,changed", MODEL_FLAG_CASES,
                         ids=[" ".join(flags) for flags, _ in MODEL_FLAG_CASES])
def test_gen_custom_model_flags_apply(tmp_path, flags, changed):
    """Each model flag, alone or with others, overrides its field of
    toy_config(), so a flag the run ignored would leave the config unchanged."""
    out = tmp_path / "custom.json"
    assert run_cli("gen", *flags, "--bw", "1", "--random", "3", "--n-response", "2",
                   "--out", str(out)) == 0
    config = json.loads(out.read_text())["config"]
    assert config == {**TOY_CONFIG, **changed} != TOY_CONFIG


def test_gen_invalid_token_ids_usage_error(tmp_path, capsys):
    """Out-of-vocabulary, non-numeric, null and boolean ids, a file that is
    not JSON, and ids that are not one row or a rectangle of rows, are usage
    errors, not tracebacks; numpy would read [1, true, 3] as [1, 1, 3]."""
    prompt = tmp_path / "bad.json"
    for text, message in (("[[9999]]", "must lie in"), ('[["a", "b"]]', "integers"),
                          ("[[null, 1]]", "integers"), ("[[1, true, 3]]", "boolean true"),
                          ("[[1, 2", f"malformed prompt file {prompt}"),
                          ("[[1, 2, 3], [4, 5]]", f"malformed prompt file {prompt}"),
                          ("[[[1, 2]]]", f"malformed prompt file {prompt}"),
                          ('{"a": 1}', f"malformed prompt file {prompt}"),
                          ("[]", f"malformed prompt file {prompt}"),
                          ("[[]]", f"malformed prompt file {prompt}")):
        prompt.write_text(text)
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
    for flag in ("--model", "--L", "--vocab"):
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


def test_check_that_raises_is_a_failure():
    def body():
        raise ValueError("kernel bug")

    res = verify._run("raising-check", body)
    assert not res.passed and "ValueError: kernel bug" in res.detail


def test_verify_reports_every_check_when_the_kernel_raises(monkeypatch, capsys):
    """A check that raises is a FAIL line and exit 1, not a usage error, and
    the other checks still run."""
    def broken(inp):
        raise ValueError("kernel bug")

    monkeypatch.setattr(engine, "sdpa_decode_fused", broken)
    monkeypatch.setattr(verify, "sdpa_decode_fused", broken)
    assert run_cli("verify", "--quick") == 1
    lines = capsys.readouterr().out.splitlines()
    results = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(results) == 8
    failed = [line for line in results if line.startswith("FAIL ")]
    assert failed and all("ValueError: kernel bug" in line for line in failed)


# -- README ---------------------------------------------------------------------------

def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``seglm`` command in the README's CLI section runs and exits 0,
    so a removed command or flag left in the docs fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line) for line in section.replace("\\\n", " ").splitlines()
                if line.startswith("seglm ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "prompt.json").write_text(json.dumps([[1, 2, 3, 4]]))
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)


# -- package ----------------------------------------------------------------------------

def test_package_version_matches_pyproject():
    """``seglm.__version__``, which the benchmark writes into every result's
    environment, is the version ``pyproject.toml`` declares. Read with a
    regex: Python 3.10 has no ``tomllib``."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
    assert declared and seglm.__version__ == declared.group(1)
