"""The benchmark's workloads: each turns a workload seed into the RunConfig
the program receives.

All workloads are closed loops driven from one process with two backend
slots (the reference box has two cores). Why each exists:

- offline: the reference mock experiment. The mock generator and classifier
  do most of the work, orchestration and 310 small JSONL writes the rest;
  selection is a few percent, so a selection change should not move it.
- wide: mock backends with a large population under the hypervolume
  selector in exact mode. The quadratic sort and domination recount
  dominate, and the population converges until the first front outgrows mu,
  so hypervolume subset selection runs in the later generations.
- live: the reference shape against the HTTP clients and a stub server in
  another process with a fixed latency and periodic 503s. Wall time is
  round trips times latency over the two slots plus client overhead.
"""

from __future__ import annotations

import random

WORKLOADS = ("offline", "wide", "live")
PAIR = "love:anger"
SLOTS = 2

# the workloads whose run is pure CPU work, so that their run time and
# generation intervals are scaled by calibration slices run between
# generations (perfbench/calibration.py); the live workload's run mostly
# waits on the stub server
CALIBRATED_RUNS = ("offline", "wide")

# stub server behaviour for the live workload
LIVE_LATENCY_MS = 10.0
LIVE_FAULT_EVERY = 50

# wide: mu and lambda sized so that selection outweighs offspring
# production; the first front outgrows mu after about seventeen generations
WIDE_MU = 800
WIDE_LAMBDA = 100
WIDE_GENERATIONS = 25
# words per wide seed prompt, drawn from the pair's own lexicons; prompts
# this saturated converge onto a few fitness points, which is what lets the
# first front outgrow mu
WIDE_WORDS = (13, 16)


def wide_seed_prompts(seed: int, count: int) -> list[str]:
    """count distinct prompts: a default story instruction followed by words
    drawn from the mock lexicons of the objective pair.

    Only the two shortest default instructions are used, so that a crossover
    of any two prompts stays within the mock generator's 24-word cap instead
    of dropping words at random, which would keep the population diverse.
    """
    from moprompt.backends import DEFAULT_LEXICONS
    from moprompt.domain import ObjectivePair
    from moprompt.runner import DEFAULT_SEED_PROMPTS

    pair = ObjectivePair.parse(PAIR)
    pool = list(DEFAULT_LEXICONS[pair.first]) + list(DEFAULT_LEXICONS[pair.second])
    rng = random.Random(f"wide-seed-prompts:{seed}")
    prompts: dict[str, None] = {}
    while len(prompts) < count:
        instruction = rng.choice(DEFAULT_SEED_PROMPTS[:2]).text
        words = rng.sample(pool, rng.randint(*WIDE_WORDS))
        prompts[f"{instruction} about {' '.join(words)}"] = None
    return list(prompts)


def build_config(name: str, seed: int, out_dir: str, live_url: str | None = None):
    """The RunConfig of workload name for seed, writing under out_dir.

    The live workload needs live_url, the stub server's base URL; without it
    the same experiment is configured against the in-process mocks, which
    must write the same tree.
    """
    from moprompt import ObjectivePair, RunConfig
    from moprompt.backends import BackendPolicy
    from moprompt.domain import Prompt
    from moprompt.runner import BackendConfig

    pair = ObjectivePair.parse(PAIR)
    policy = BackendPolicy(max_concurrent_requests=SLOTS)
    if name == "offline":
        return RunConfig(pair=pair, seed=seed, out_dir=out_dir, backend=BackendConfig(policy=policy))
    if name == "wide":
        prompts = tuple(Prompt(p) for p in wide_seed_prompts(seed, WIDE_MU))
        return RunConfig(
            pair=pair, mu=WIDE_MU, lam=WIDE_LAMBDA, generations=WIDE_GENERATIONS,
            repetitions=1, selector="sms_emoa", hv_mode="exact", seed=seed,
            seed_prompts=prompts, out_dir=out_dir, backend=BackendConfig(policy=policy),
        )
    if name == "live":
        # no backoff, so an injected fault costs one retried round trip
        policy = BackendPolicy(timeout=10.0, max_retries=2, backoff=0.0, max_concurrent_requests=SLOTS)
        if live_url is None:
            backend = BackendConfig(policy=policy)
        else:
            backend = BackendConfig(
                kind="live", llm_base_url=live_url,
                classifier_base_url=f"{live_url}/classify", policy=policy,
            )
        # four short repetitions: enough generation intervals for a tail
        # percentile and a final hypervolume that varies little from seed to seed
        return RunConfig(
            pair=pair, generations=3, repetitions=4, seed=seed, out_dir=out_dir, backend=backend,
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
