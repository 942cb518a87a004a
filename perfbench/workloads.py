"""The benchmark's model and workloads. Imports nothing heavy, so the entry
point can read the workload names before numpy is loaded."""
from __future__ import annotations

from dataclasses import dataclass, replace

MODEL = {"L": 4, "H": 8, "D": 32, "vocab": 256, "ff_dim": 512}
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    bs: int
    bw: int
    n_prompt: int
    n_response: int

    @property
    def mode(self) -> str:
        return "beam" if self.bw > 1 else "greedy"

    @property
    def tokens(self) -> int:
        """Tokens one request produces: BS * BW * N_response."""
        return self.bs * self.bw * self.n_response

    @property
    def warmup(self) -> "Workload":
        """Same batch geometry with a short prompt and one response-cache
        growth (the growth quantum is 16 rows, so 17 steps cross it): every
        code path of a request runs, at a fraction of its cost."""
        return replace(self, n_prompt=16, n_response=17)


# Why each exists; the same text is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # Four beams share a 512-token prompt: the prompt segment is stored once
    # instead of 4x, prompt streaming is most of sdpa_decode_fused's work, and
    # sdpa_prefill is about 90% of the time to first token.
    Workload("long-prompt-beam", bs=2, bw=4, n_prompt=512, n_response=48),
    # No beams, no prompt sharing, negligible prefill: ten 16-row response
    # blocks per layer, response-segment reads and the O(t) gather-index
    # build per step dominate.
    Workload("long-response-greedy", bs=4, bw=1, n_prompt=32, n_response=160),
    # 32 rows per step with a short prompt: per-item beam selection, the
    # beam-index gather in attention and the per-row ops (qkv, mlp) dominate.
    Workload("wide-beam", bs=4, bw=8, n_prompt=64, n_response=64),
)}
