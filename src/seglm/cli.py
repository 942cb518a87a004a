"""Command-line surface: memory tables (with the largest batch of each cache
policy under a byte budget), generation runs, fusion reports, and the
verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error (including a
path that cannot be read or written). All CSV/JSON
fields are recomputable from the inputs; wall-clock timings live under
segregated "timing" keys.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from .config import PRESETS, ModelConfig, preset, toy_config
from .engine import (GenerationRequest, OptimizedEngine, ReferenceEngine, ToyWeights,
                     load_weights, save_weights)
from .fusion import apply_fusion_passes, build_standard_decoder_graph, op_count_report
from .kvcache import MEMSIM_COLUMNS, CacheShapeParams, bs_max_under_budget, memsim_row
from .verify import GB, run_checks


class UsageError(ValueError):
    pass


# gen's model flags: flag -> argparse keywords. Each flag given overrides one
# field of toy_config(); a weight file fixes the model, so --weights rejects them all.
MODEL_FLAGS = {
    "--L": dict(type=int, help="decoder layers (default 2)"),
    "--H": dict(type=int, help="attention heads (default 4)"),
    "--D": dict(type=int, help="head dimension (default 16)"),
    "--ff": dict(type=int, help="MLP hidden width (default 2*H*D)"),
    "--vocab": dict(type=int, help="vocabulary size (default 64)"),
}
BUDGET_COLUMNS = ("budget_bytes", "bs_max_segment", "bs_max_standard")


def _reject(args, flags, reason: str) -> None:
    """A usage error naming each of ``flags`` that the command line set."""
    given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} {reason}")


def _check_counts(args, minimums: dict[str, int]) -> None:
    """A usage error naming the first count flag the command line set below
    its minimum in ``minimums`` (flag -> least value)."""
    for flag, least in minimums.items():
        values = getattr(args, flag[2:].replace("-", "_"))
        for value in values if isinstance(values, list) else [values]:
            if value is not None and value < least:
                raise UsageError(f"{flag} must be >= {least}, got {value}")


def _resolve_config(args) -> ModelConfig:
    """``toy_config()`` with each model flag the command line set overriding its field."""
    fields = {"L": args.L, "H": args.H, "D": args.D, "ff_dim": args.ff, "vocab": args.vocab}
    return toy_config(**{name: value for name, value in fields.items() if value is not None})


def _output(path: str | None):
    """The command's output: the file at ``path`` opened for writing, or stdout."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def cmd_memsim(args) -> int:
    _check_counts(args, {"--bs": 0, "--bw": 1, "--n-prompt": 0, "--n-response": 0,
                         "--budget-bytes": 0})
    rows = []
    for name in args.models:
        cfg = preset(name)
        budget = {}
        if args.budget_bytes is not None:
            budget["budget_bytes"] = args.budget_bytes
            for policy in ("segment", "standard"):
                try:
                    budget[f"bs_max_{policy}"] = bs_max_under_budget(
                        cfg, policy, args.budget_bytes, args.bw, args.n_prompt, args.n_response)
                except ValueError as exc:  # name the preset: the table may list several
                    raise UsageError(f"{name}: {exc}") from None
            if budget["bs_max_segment"] == budget["bs_max_standard"] == 0:
                raise UsageError(f"{name}: budget of {args.budget_bytes} bytes is too small "
                                 "for batch size 1")
        for bs in args.bs:
            p = CacheShapeParams(bs, args.bw, args.n_prompt, args.n_response)
            rows.append({**memsim_row(cfg, name, p), **budget})
    if args.format == "csv":
        import io
        buf = io.StringIO()
        columns = MEMSIM_COLUMNS + (() if args.budget_bytes is None else BUDGET_COLUMNS)
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        for row in rows:  # display-only decimal-GB fields; bytes stay canonical
            row["standard_gb"] = round(row["standard_bytes"] / GB)
            row["segment_gb"] = round(row["segment_bytes"] / GB)
            row["saving_gb"] = round(row["saving_bytes"] / GB, 1)
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    with _output(args.out) as out:
        out.write(text)
    return 0


def _load_prompt(args, cfg: ModelConfig, seed: int | None) -> np.ndarray:
    if args.prompt_file:
        _reject(args, ("--bs", "--random"),
                "cannot be combined with --prompt-file, whose ids fix the prompt")
        with open(args.prompt_file) as f:
            try:
                ids = json.load(f)
            except ValueError as exc:  # not UTF-8 or not JSON
                raise UsageError(f"malformed prompt file {args.prompt_file}: {exc}") from None
        shape_error = UsageError(f"malformed prompt file {args.prompt_file}: token ids must be "
                                 "[...] or [[...], ...], with rows of one length, none empty")
        try:
            prompt = np.asarray(ids)  # GenerationRequest rejects non-integer ids
        except ValueError:  # nested lists of different lengths
            raise shape_error from None
        if prompt.ndim == 1:
            prompt = prompt[None, :]
        if prompt.ndim != 2 or prompt.size == 0:
            raise shape_error
        bools = [x for x in np.asarray(ids, dtype=object).flat if isinstance(x, bool)]
        if bools:  # numpy would read [1, true, 3] as the ids [1, 1, 3]
            raise UsageError(f"prompt file {args.prompt_file} holds the boolean "
                             f"{json.dumps(bools[0])}: token ids must be integers")
    else:
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, cfg.vocab, size=(1 if args.bs is None else args.bs,
                                                  16 if args.random is None else args.random))
    return prompt  # the engine rejects ids outside the vocabulary


def cmd_gen(args) -> int:
    paths = {flag: os.path.realpath(path) for flag, path in
             (("--weights", args.weights), ("--prompt-file", args.prompt_file),
              ("--save-weights", args.save_weights), ("--out", args.out)) if path}
    for written in ("--save-weights", "--out"):  # checked before any file is read or written
        for flag, path in paths.items():
            if flag != written and path == paths.get(written):
                raise UsageError(f"{written} and {flag} name the same file, {path}; "
                                 "gen would overwrite it")
    _check_counts(args, {"--seed": 0, "--bs": 1, "--random": 1, "--bw": 1, "--n-response": 0})
    if args.weights and args.prompt_file:  # nothing is drawn
        _reject(args, ("--seed",), "cannot be combined with both --weights and "
                "--prompt-file, which leave nothing to draw")
        seed = None
    else:
        seed = 0 if args.seed is None else args.seed
    if args.weights:
        _reject(args, MODEL_FLAGS,
                "cannot be combined with --weights, whose file holds the model config")
        weights = load_weights(args.weights)
        cfg = weights.config
    else:
        cfg = _resolve_config(args)
        weights = ToyWeights.random(cfg, seed=seed)
    # the engines check the weights before a prompt is read or a file written
    engines = {name: engine(weights) for name, engine in
               (("optimized", OptimizedEngine), ("reference", ReferenceEngine))
               if args.engine in (name, "both")}
    prompt = _load_prompt(args, cfg, seed)
    if args.save_weights:
        save_weights(args.save_weights, weights)
    request = GenerationRequest(prompt, args.n_response, bw=args.bw)

    report: dict = {
        "config": asdict(cfg),
        "request": {"bs": int(prompt.shape[0]), "n_prompt": int(prompt.shape[1]),
                    "n_response": args.n_response, "mode": request.mode,
                    "bw": args.bw, "seed": seed},
    }
    for engine in engines.values():  # before --out is opened, which truncates it
        engine.check_request(request)
    with _output(args.out) as out:  # opened before the run: an unwritable path fails at once
        results = {name: engine.generate(request) for name, engine in engines.items()}
        for name, res in results.items():
            report[name] = res.to_json_dict()
        if args.engine == "both":
            report["match"] = bool(np.array_equal(results["optimized"].tokens,
                                                  results["reference"].tokens))
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_fusion_report(args) -> int:
    std = build_standard_decoder_graph(args.phase)
    opt = apply_fusion_passes(std)
    report = {
        "phase": args.phase,
        "standard": op_count_report(std),
        "optimized": op_count_report(opt),
    }
    with _output(args.out) as out:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    results = run_checks()
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--budget-bytes", type=int,
                   help="add the largest batch of each policy whose cache fits this budget")
    p.add_argument("--out", help="write to file instead of stdout")
    p.set_defaults(fn=cmd_memsim)

    p = sub.add_parser("gen", allow_abbrev=False, help="run generation on one or both engines")
    for flag, kwargs in MODEL_FLAGS.items():
        p.add_argument(flag, **kwargs)
    p.add_argument("--engine", choices=("optimized", "reference", "both"), default="both")
    p.add_argument("--bs", type=int, help="random prompts in the batch (default 1)")
    p.add_argument("--bw", type=int, default=4, help="beam width; 1 decodes greedily")
    p.add_argument("--prompt-file", help="JSON file of token ids ([[...]] or [...])")
    p.add_argument("--random", type=int, metavar="N",
                   help="draw a random prompt of N tokens per batch item (default 16)")
    p.add_argument("--n-response", type=int, default=128)
    p.add_argument("--seed", type=int,
                   help="seed of the drawn weights and random prompt (default 0)")
    p.add_argument("--weights", help="load weights from file")
    p.add_argument("--save-weights", help="save the run's weights to file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("fusion-report", allow_abbrev=False,
                       help="operator histograms before and after fusion")
    p.add_argument("--phase", choices=("prefill", "decode"), default="decode")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fusion_report)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the acceptance checks")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
