"""Command-line surface: memory tables, generation runs, fusion reports,
largest-batch scans under a byte budget, and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error. All CSV/JSON
fields are recomputable from the inputs; wall-clock timings live under
segregated "timing" keys.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .config import PRESETS, ModelConfig, preset, toy_config
from .engine import (GenerationRequest, OptimizedEngine, ReferenceEngine, ToyWeights,
                     load_weights, save_weights)
from .fusion import apply_fusion_passes, build_standard_decoder_graph, op_count_report
from .kvcache import MEMSIM_COLUMNS, CacheShapeParams, memsim_row
from .verify import GB, bs_max_under_budget, run_checks


class UsageError(ValueError):
    pass


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=sorted(PRESETS), help="named model preset")
    p.add_argument("--L", type=int, help="decoder layers (custom model)")
    p.add_argument("--H", type=int, help="attention heads")
    p.add_argument("--D", type=int, help="head dimension")
    p.add_argument("--ff", type=int, help="MLP hidden width")
    p.add_argument("--vocab", type=int, help="vocabulary size")
    p.add_argument("--dtype-bytes", type=int, choices=(2, 4),
                   help="accounting bytes per cached element (default 2)")


# argparse dest -> flag, for the model flags a loaded weight file overrides
MODEL_FLAGS = {"model": "--model", "L": "--L", "H": "--H", "D": "--D", "ff": "--ff",
               "vocab": "--vocab", "dtype_bytes": "--dtype-bytes"}


def _resolve_config(args) -> ModelConfig:
    if args.model:
        cfg = preset(args.model)
    elif args.L or args.H or args.D:
        if not (args.L and args.H and args.D):
            raise UsageError("custom models need --L, --H and --D together")
        cfg = toy_config(L=args.L, H=args.H, D=args.D,
                         vocab=args.vocab or 64, ff_dim=args.ff)
    else:
        cfg = toy_config()
    return cfg.with_dtype_bytes(2 if args.dtype_bytes is None else args.dtype_bytes)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_memsim(args) -> int:
    rows = []
    for name in args.models:
        cfg = preset(name).with_dtype_bytes(args.dtype_bytes)
        for bs in args.bs:
            p = CacheShapeParams(bs, args.bw, args.n_prompt, args.n_response)
            rows.append(memsim_row(cfg, name, p))
    if args.format == "csv":
        import io
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=MEMSIM_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        for row in rows:  # display-only decimal-GB fields; bytes stay canonical
            row["standard_gb"] = round(row["standard_bytes"] / GB)
            row["segment_gb"] = round(row["segment_bytes"] / GB)
            row["saving_gb"] = round(row["saving_bytes"] / GB, 1)
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _load_prompt(args, cfg: ModelConfig) -> np.ndarray:
    if args.prompt_file:
        with open(args.prompt_file) as f:
            prompt = np.asarray(json.load(f))  # GenerationRequest rejects non-integer ids
        if prompt.ndim == 1:
            prompt = prompt[None, :]
    else:
        rng = np.random.default_rng(args.seed)
        prompt = rng.integers(0, cfg.vocab, size=(args.bs, args.random))
    return prompt  # the engine rejects ids outside the vocabulary


def cmd_gen(args) -> int:
    if args.weights:
        given = [flag for dest, flag in MODEL_FLAGS.items() if getattr(args, dest) is not None]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --weights, "
                             "whose file holds the model config")
        weights = load_weights(args.weights)
        cfg = weights.config
    else:
        cfg = _resolve_config(args)
        weights = ToyWeights.random(cfg, seed=args.seed)
    if args.save_weights:
        save_weights(args.save_weights, weights)
    prompt = _load_prompt(args, cfg)
    mode = "greedy" if args.bw == 1 else "beam"
    request = GenerationRequest(prompt, args.n_response, mode=mode, bw=args.bw)

    report: dict = {
        "config": {"L": cfg.L, "H": cfg.H, "D": cfg.D, "ff_dim": cfg.ff_dim,
                   "vocab": cfg.vocab, "dtype_bytes": cfg.dtype_bytes},
        "request": {"bs": int(prompt.shape[0]), "n_prompt": int(prompt.shape[1]),
                    "n_response": args.n_response, "mode": mode,
                    "bw": args.bw, "seed": args.seed},
    }
    results = {}
    if args.engine in ("optimized", "both"):
        results["optimized"] = OptimizedEngine(weights).generate(request)
    if args.engine in ("reference", "both"):
        results["reference"] = ReferenceEngine(weights).generate(request)
    for name, res in results.items():
        report[name] = res.to_json_dict()
    if args.engine == "both":
        report["match"] = bool(np.array_equal(results["optimized"].tokens,
                                              results["reference"].tokens))
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    bs_max_seg = bs_max_under_budget(cfg, "segment", args.budget_bytes,
                                     args.bw, args.n_prompt, args.n_response)
    bs_max_std = bs_max_under_budget(cfg, "standard", args.budget_bytes,
                                     args.bw, args.n_prompt, args.n_response)
    report = {
        "model": args.model or "custom",
        "BW": args.bw,
        "N_prompt": args.n_prompt,
        "N_response": args.n_response,
        "dtype_bytes": cfg.dtype_bytes,
        "budget_bytes": args.budget_bytes,
        "bs_max_segment": bs_max_seg,
        "bs_max_standard": bs_max_std,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_fusion_report(args) -> int:
    std = build_standard_decoder_graph(args.phase)
    opt = apply_fusion_passes(std)
    report = {
        "phase": args.phase,
        "standard": op_count_report(std),
        "optimized": op_count_report(opt),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(quick=args.quick)
    ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name}: {r.detail} [{r.elapsed_s:.2f}s]")
        ok = ok and r.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seglm", allow_abbrev=False)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("memsim", allow_abbrev=False, help="cache-size table for the two policies")
    p.add_argument("--models", nargs="+", choices=sorted(PRESETS), default=sorted(PRESETS))
    p.add_argument("--bs", nargs="+", type=int, default=[1, 2, 4, 8, 16, 32])
    p.add_argument("--bw", type=int, default=4)
    p.add_argument("--n-prompt", type=int, default=1024)
    p.add_argument("--n-response", type=int, default=128)
    p.add_argument("--dtype-bytes", type=int, choices=(2, 4), default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_memsim)

    p = sub.add_parser("gen", allow_abbrev=False, help="run generation on one or both engines")
    _add_model_flags(p)
    p.add_argument("--engine", choices=("optimized", "reference", "both"), default="both")
    p.add_argument("--bs", type=int, default=1)
    p.add_argument("--bw", type=int, default=4, help="beam width; 1 decodes greedily")
    p.add_argument("--prompt-file", help="JSON file of token ids ([[...]] or [...])")
    p.add_argument("--random", type=int, default=16, metavar="N",
                   help="draw a random prompt of N tokens per batch item")
    p.add_argument("--n-response", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", help="load weights from file")
    p.add_argument("--save-weights", help="save the run's weights to file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", allow_abbrev=False,
                       help="largest batch of each cache policy under a byte budget")
    _add_model_flags(p)
    p.add_argument("--budget-bytes", type=int, required=True)
    p.add_argument("--bw", type=int, default=4)
    p.add_argument("--n-prompt", type=int, default=1024)
    p.add_argument("--n-response", type=int, default=128)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("fusion-report", allow_abbrev=False,
                       help="operator histograms before and after fusion")
    p.add_argument("--phase", choices=("prefill", "decode"), default="decode")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fusion_report)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the acceptance checks")
    p.add_argument("--quick", action="store_true", help="cap random cases at 20")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
