"""Closed-loop decode benchmark of the seglm engines.

One client sends requests back to back, with no arrival schedule: the
runtime has no admission queue, so an open loop would only measure the load
generator. Every timed request runs on ``OptimizedEngine`` and is checked
against ``ReferenceEngine`` on the same inputs; the reference's time is
reported separately and stays out of the end-to-end timings. With tracing
on, each request also runs a second time under the span wrappers of
``tracing``; the untraced run is the overhead baseline and must give the
same tokens and counts.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

import seglm
from seglm.config import toy_config
from seglm.engine import GenerationRequest, OptimizedEngine, ReferenceEngine, ToyWeights

import hostspeed
import tracing
from workloads import MODEL, SETUP_REPEATS, WORKLOADS, Workload

CONFIG = toy_config(**MODEL)
HIDDEN_TOL = 1e-4  # final_hidden agreement required by seglm.verify
TIE_GAP = 1e-3     # seglm.verify excuses a token flip when a selection margin fell below this
OUT = Path(__file__).resolve().parent / "out"


def make_request(w: Workload, rng: np.random.Generator) -> GenerationRequest:
    prompt = rng.integers(0, CONFIG.vocab, size=(w.bs, w.n_prompt))
    return GenerationRequest(prompt, w.n_response, mode=w.mode, bw=w.bw)


def set_up(w: Workload, seed: int):
    """Weights, both engines, and one untimed warm-up request on each. Returns
    the set-up's wall time, scaled to the reference host speed, and the
    engines."""
    scale = hostspeed.REFERENCE_S / hostspeed.burst()
    t0 = perf_counter()
    weights = ToyWeights.random(CONFIG, seed=seed)
    optimized, reference = OptimizedEngine(weights), ReferenceEngine(weights)
    warm = make_request(w.warmup, np.random.default_rng([seed, 1]))
    optimized.generate(warm)
    reference.generate(warm)
    return (perf_counter() - t0) * scale, optimized, reference


# -- checks --------------------------------------------------------------------

def compare(opt, ref) -> str:
    """'match', 'near-tie' (tokens differ but a selection margin fell below
    TIE_GAP, the rule seglm.verify excuses), or a divergence description."""
    if np.array_equal(opt.tokens, ref.tokens):
        diff = float(np.max(np.abs(opt.final_hidden - ref.final_hidden)))
        return "match" if diff <= HIDDEN_TOL else f"diverged: final_hidden differs by {diff:.3e}"
    if min(opt.min_top_gap, ref.min_top_gap) < TIE_GAP:
        return "near-tie"
    return "diverged: tokens differ at a selection margin >= 1e-3"


def data_movement_errors(result, w: Workload) -> list[str]:
    """The optimized decode path: no cat, no index select, two layout
    conversions per decode step."""
    c = result.counters
    errors = [f"{name} = {n}, expected 0" for name, n in
              (("cat_ops", c.cat_ops), ("index_select_ops", c.index_select_ops)) if n]
    if c.layout_conversions != 2 * w.n_response:
        errors.append(f"layout_conversions = {c.layout_conversions}, "
                      f"expected 2 per step = {2 * w.n_response}")
    return errors


def engine_counts(result, ledger) -> dict:
    """Counts that depend only on the request and must repeat exactly."""
    events = defaultdict(lambda: [0, 0])
    for kind, nbytes in ledger.events:
        events[kind][0] += 1
        events[kind][1] += nbytes
    return {
        "op_counters": result.counters.as_dict(),
        "ledger_events": dict(sorted(events.items())),  # kind -> [events, bytes]
        "ledger_digest": hashlib.sha256(repr(ledger.events).encode()).hexdigest(),
        "kv_bytes": {k: v for k, v in sorted(result.memory.items()) if k.endswith("_bytes")},
    }


def repeat_errors(path: Path, counts: dict) -> list[str]:
    """Compare this run's per-request counts with an earlier run of the same
    workload, seed and source (request i has the same prompt in both), then
    record the longer list for the next run."""
    previous = json.loads(path.read_text()) if path.is_file() else {}
    errors = []
    for kind, now in counts.items():
        before = previous.get(kind, [])
        for i, (a, b) in enumerate(zip(before, now)):
            if a is not None and b is not None and a != b:
                errors.append(f"{kind} counts of request {i} differ from an earlier run "
                              f"with the same seed ({path.name})")
        if len(now) < len(before):
            counts[kind] = now + before[len(now):]
    path.write_text(json.dumps(counts, sort_keys=True))
    return errors


# -- environment ---------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """Hash of the runtime and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    sources = [*(root / "src" / "seglm").glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seglm": seglm.__version__,
    }


# -- metrics -------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(w: Workload, setup_times, ok, attempted) -> tuple[dict, dict]:
    """Timings are scaled to the reference host speed (see hostspeed)."""
    values = {
        "setup_s": median(setup_times),
        "ttft_ms_p50": median(r["scaled"]["ttft_ms"] for r in ok),
        "tpot_ms_p50": median(r["scaled"]["tpot_ms"] for r in ok),
        "tokens_per_s": w.tokens * len(ok) / sum(r["scaled"]["wall_s"] for r in ok),
        "kv_peak_reserved_bytes": median(r["kv_bytes"]["peak_reserved_bytes"] for r in ok),
        # = 1 + fragmentation / active: fragmentation as a figure that is never 0
        "kv_reserved_over_active": median(r["kv_bytes"]["peak_reserved_bytes"]
                                          / r["kv_bytes"]["final_active_bytes"] for r in ok),
        "success_ratio": len(ok) / attempted,
        "raw.ttft_ms_p50": median(r["ttft_ms"] for r in ok),
        "raw.tpot_ms_p50": median(r["tpot_ms"] for r in ok),
        "raw.tokens_per_s": w.tokens * len(ok) / sum(r["wall_s"] for r in ok),
        "host.speed": median(hostspeed.REFERENCE_S / b for r in ok for b in r["burst_s"]),
    }
    samples = {"setup_s": len(setup_times), "ttft_ms_p50": len(ok), "tpot_ms_p50": len(ok),
               "tokens_per_s": len(ok) * w.tokens}
    return values, samples


def per_request_layers(spans: list[tracing.Span], root_index: int) -> dict:
    """Per-layer totals of one traced request: its root span sits at
    ``root_index`` of the recorder's spans and its children follow it."""
    root = spans[root_index]
    ms, calls, work = defaultdict(float), defaultdict(int), defaultdict(list)
    children_ms = 0.0
    for s in spans[root_index + 1:]:
        ms[s.name] += s.ms
        calls[s.name] += 1
        if s.parent == root_index:
            children_ms += s.ms
        for key, value in (s.attrs or {}).items():
            work[(s.name, key)].append(value)
    m = {f"{name}.ms": v for name, v in ms.items()}
    m.update({f"{name}.calls": n for name, n in calls.items()})
    for kernel in ("sdpa.decode", "sdpa.prefill"):
        for key in ("keys", "flops", "bytes"):
            if work[(kernel, key)]:
                m[f"{kernel}.{key}_per_call"] = float(np.mean(work[(kernel, key)]))
    m["kvcache.response_grow.events"] = sum(work[("kvcache.response_append", "grew")])
    m["engine.self_ms"] = root.ms - children_ms
    return m


def per_layer(w: Workload, ok) -> dict:
    values = {k: median(r["layers"][k] for r in ok) for k in ok[0]["layers"]}

    def ledger_reuse(r):
        ev = r["counts"]["ledger_events"]
        reuse = ev.get("reuse", [0])[0]
        return reuse / (ev.get("alloc", [0])[0] + reuse)

    values.update({
        "kvcache.ledger.reuse_ratio": median(ledger_reuse(r) for r in ok),
        "kvcache.fragmentation_bytes": median(r["kv_bytes"]["fragmentation_bytes"] for r in ok),
        "engine.layout_conversions_per_step": median(
            r["counts"]["op_counters"]["layout_conversions"] / w.n_response for r in ok),
        "engine.cat_ops": median(r["counts"]["op_counters"]["cat_ops"] for r in ok),
        "engine.index_select_ops":
            median(r["counts"]["op_counters"]["index_select_ops"] for r in ok),
        "trace.overhead_pct": 100.0 * (median(r["traced_wall_s"] for r in ok)
                                       / median(r["scaled"]["wall_s"] for r in ok) - 1.0),
    })
    return values


def reference_metrics(ok) -> dict:
    return {
        "engine.reference.ttft_ms_p50": median(r["reference"]["ttft_ms"] for r in ok),
        "engine.reference.tpot_ms_p50": median(r["reference"]["tpot_ms"] for r in ok),
        "engine.reference.kv_peak_reserved_bytes":
            median(r["reference"]["peak_reserved_bytes"] for r in ok),
    }


# -- the run -------------------------------------------------------------------

def timings(result) -> dict:
    return {"ttft_ms": result.first_token_latency_s * 1e3,
            "tpot_ms": result.next_token_latency_s * 1e3}


def run_request(i, w, req, optimized, reference, recorder, rec, errors) -> None:
    before = hostspeed.burst()
    t0 = perf_counter()
    res = optimized.generate(req)
    rec["wall_s"] = perf_counter() - t0
    after = hostspeed.burst()
    first = res.first_token_latency_s / rec["wall_s"]
    rec.update(burst_s=[before, after], scaled={
        "ttft_ms": res.first_token_latency_s * 1e3 * hostspeed.scale(before, after, 0.0, first),
        "tpot_ms": res.next_token_latency_s * 1e3 * hostspeed.scale(before, after, first, 1.0),
        "wall_s": rec["wall_s"] * hostspeed.scale(before, after, 0.0, 1.0)})
    rec.update(timings(res), kv_bytes=res.memory,
               counts=engine_counts(res, optimized.last_ledger),
               min_top_gap=None if np.isinf(res.min_top_gap) else res.min_top_gap)
    errors.extend(f"request {i}: {e}" for e in data_movement_errors(res, w))

    if recorder is not None:
        root_index = len(recorder.spans)
        with tracing.instrumented(recorder), recorder.span("engine.generate", request=i) as root:
            traced = optimized.generate(req)
        rec["traced_wall_s"] = (root.end - root.start) * hostspeed.scale(
            after, hostspeed.burst(), 0.0, 1.0)
        rec["layers"] = per_request_layers(recorder.spans, root_index)
        if not (np.array_equal(traced.tokens, res.tokens)
                and np.array_equal(traced.final_hidden, res.final_hidden)):
            errors.append(f"request {i}: traced run gave other outputs than the untraced run")
        if engine_counts(traced, optimized.last_ledger) != rec["counts"]:
            errors.append(f"request {i}: traced run gave other counts than the untraced run")

    t0 = perf_counter()
    ref = reference.generate(req)
    rec["reference"] = {**timings(ref), "wall_s": perf_counter() - t0,
                        "peak_reserved_bytes": ref.memory["peak_reserved_bytes"]}
    rec["outcome"] = compare(res, ref)


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    w = WORKLOADS[name]
    env = environment(root)
    spec = json.loads((root / "BENCHMARK.json").read_text())

    setup_times = []
    for _ in range(SETUP_REPEATS):
        dt, optimized, reference = set_up(w, seed)
        setup_times.append(dt)

    recorder = tracing.SpanRecorder() if trace else None
    prompts = np.random.default_rng([seed, 0])
    records, errors, iteration_s = [], [], []
    loop_start = perf_counter()
    # Start another request only if one more of median length fits in the
    # time box, so a run ends near --seconds instead of one request past it.
    while not records or perf_counter() - loop_start + median(iteration_s) <= seconds:
        i = len(records)
        rec = {"index": i}
        records.append(rec)
        req = make_request(w, prompts)
        t0 = perf_counter()
        try:
            run_request(i, w, req, optimized, reference, recorder, rec, errors)
        except Exception:  # a request that raises is a failed request; keep measuring
            rec["outcome"] = "raised"
            rec["error"] = traceback.format_exc()
            print(f"request {i} raised:\n{rec['error']}", file=sys.stderr)
        iteration_s.append(perf_counter() - t0)

    ok = [r for r in records if r["outcome"] in ("match", "near-tie")]
    failed = len(records) - len(ok)
    near_tie = sum(r["outcome"] == "near-tie" for r in records)
    OUT.mkdir(exist_ok=True)
    counts = {"engine": [r.get("counts") for r in records]}
    if trace:
        # call counts and computed kernel work; times vary and are left out
        counts["trace"] = [{k: v for k, v in r["layers"].items() if not k.endswith("ms")}
                           if "layers" in r else None for r in records]
    errors += repeat_errors(
        OUT / f"counts-{name}-seed{seed}-{env['source_sha256'][:12]}-trace{int(trace)}.json",
        counts)
    # On these shapes some selection margin is always below TIE_GAP (a few
    # 1e-6 on wide-beam, ~1e-4 on long-prompt-beam), so the near-tie excuse
    # alone would pass any bug. Genuine flips are rare; a majority is not.
    if 2 * near_tie > len(records):
        errors.append(f"{near_tie} of {len(records)} requests mismatched the reference "
                      "under the near-tie excuse")
    for r in records:
        if r["outcome"] not in ("match", "near-tie", "raised"):
            print(f"request {r['index']}: {r['outcome']}", file=sys.stderr)
    for e in errors:
        print(f"self-check failed: {e}", file=sys.stderr)

    values, samples = {}, {}
    if ok:
        values, samples = end_to_end(w, setup_times, ok, len(records))
        values["failed_ratio"] = failed / len(records)
        values["check.requests_near_tie"] = near_tie
        values.update(reference_metrics(ok))
        if trace:
            values.update(per_layer(w, ok))
            spans = {"seed": seed, **recorder.to_json()}
            (OUT / f"spans-{name}.json").write_text(json.dumps(spans))

    correct = failed == 0 and not errors
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = ({m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
               if ok else {})

    report(w, seed, seconds, trace, env, records, failed, near_tie, values, samples, listed)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": asdict(w), "model": MODEL, "seed": seed, "seconds": seconds,
        "trace": trace, "loop": "closed, 1 client", "environment": env,
        "setup_s_samples": setup_times, "metrics": values, "samples": samples,
        "errors": errors, "requests": records,
    }, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def report(w, seed, seconds, trace, env, records, failed, near_tie, values, samples, listed):
    print(f"seglm decode benchmark: workload {w.name}, seed {seed}, {seconds:g} s, "
          f"trace {int(trace)}; closed loop, 1 client")
    print(f"  model L={MODEL['L']} H={MODEL['H']} D={MODEL['D']} vocab={MODEL['vocab']} "
          f"ff={MODEL['ff_dim']}; BS={w.bs} BW={w.bw} N_prompt={w.n_prompt} "
          f"N_response={w.n_response} ({w.mode})")
    print(f"  python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
          f"nproc {env['nproc']}, threads {env['threads']}, commit {env['git_commit']}")
    print(f"  requests attempted {len(records)}, failed {failed}, near-tie mismatches {near_tie}")
    for m in listed:
        if m["name"] in values:
            n = samples.get(m["name"])
            note = f"  (n={n})" if n is not None else ""
            print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}{note}")
    if not trace and values:
        for name, unit in (("failed_ratio", "ratio"), ("raw.ttft_ms_p50", "ms"),
                           ("raw.tpot_ms_p50", "ms"), ("raw.tokens_per_s", "1/s"),
                           ("host.speed", "ratio")):
            print(f"  {name:<40} {values[name]:>16.6g} {unit}")
