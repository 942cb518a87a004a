"""Acceptance suite: every criterion at full size, one pass/fail line each.

Expected values are re-derived by independent routes (closed-form arithmetic,
brute-force scans, the materializing oracle, the reference engine); see
seglm.verify for the check bodies shared with `seglm verify`.
"""
import json


from seglm import verify
from seglm.cli import main as cli_main


def _report(res, bound_s):
    print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail} "
          f"[{res.elapsed_s:.2f}s, bound {bound_s}s]")
    assert res.passed, f"{res.name}: {res.detail}"
    assert res.elapsed_s < bound_s, f"{res.name} exceeded its {bound_s}s budget"


def test_criterion_1_cache_formula_goldens(capsys, tmp_path):
    res = verify.check_memsim_goldens()
    # the same numbers must come out of the CLI surface
    out = tmp_path / "mem.json"
    assert cli_main(["memsim", "--models", "gptj-6b", "--bs", "32", "--bw", "4",
                     "--n-prompt", "1024", "--n-response", "1024",
                     "--format", "json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())[0]
    assert row["standard_bytes"] == 137_438_953_472
    assert row["segment_bytes"] == 85_899_345_920
    assert row["standard_gb"] == 137 and row["segment_gb"] == 86
    assert row["ratio"] == 0.625 and row["saving_gb"] == 51.5
    with capsys.disabled():
        _report(res, bound_s=1.0)


def test_criterion_2_fused_sdpa_oracle_equivalence(capsys):
    res = verify.check_sdpa_fused_vs_oracle(cases=200)
    with capsys.disabled():
        _report(res, bound_s=30.0)


def test_criterion_3_cross_engine_equivalence(capsys):
    res = verify.check_cross_engine()
    with capsys.disabled():
        _report(res, bound_s=120.0)


def test_criterion_4_segment_response_arena(capsys):
    res = verify.check_response_arena()
    with capsys.disabled():
        _report(res, bound_s=1.0)


def test_criterion_5_fusion_counts(capsys):
    res = verify.check_fusion_counts()
    with capsys.disabled():
        _report(res, bound_s=1.0)


def test_criterion_6_fragmentation_model(capsys):
    res = verify.check_fragmentation_model()
    with capsys.disabled():
        _report(res, bound_s=1.0)


def test_criterion_7_bs_max_inversion(capsys):
    res = verify.check_bsmax_inversion()
    with capsys.disabled():
        _report(res, bound_s=1.0)


def test_criterion_8_desk_scale_substitution_counters(capsys):
    """Absolute device numbers (bandwidth, latency, throughput multipliers)
    are out of desk-scale reach; their stand-ins are criteria 1-7 plus these
    instrumented counters showing the optimized decode path runs zero cat and
    zero index-select tensor ops."""
    res = verify.check_no_data_movement()
    with capsys.disabled():
        _report(res, bound_s=30.0)
