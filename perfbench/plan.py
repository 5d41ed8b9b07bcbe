"""Workload plans: everything the harness runs, generated from the seed.

A plan is a list of `key value...` lines, the harness's input format. The
same (workload, seed, seconds) always gives the same plan; run.py adds
only the server's socket path. Amounts of work are fixed per --seconds
(calibrated at 10 s on 4 cores), so two commits run identical work.
"""

import random

# The workloads BENCHMARK.json gates, and two that run.py still runs for
# their readout and traced per-layer figures. On a shared host paper_dense's
# ~100 MB of engines, and registry_sweep's single thread of field builds,
# swing with other tenants' load by more than any bound the benchmark may
# set (see README.md).
WORKLOADS = ("paper_sparse", "server_mix")
EXTRA_WORKLOADS = ("paper_dense", "registry_sweep")

# server_mix traffic: a skewed pool of scenario-text variants of the mover,
# waypoint and door scenarios makes ~10% of the jobs; the rest name
# registry scenarios (cache hits once warm).
VARIANT_CLASSES = ("mover", "waypoint", "door")
VARIANTS = 12
TEXT_SHARE = 0.10
JOBS = 4000


def _rng(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


def _seeds(rng, n):
    return " ".join(str(rng.getrandbits(63)) for _ in range(n))


def _scaled(count, seconds, floor):
    return max(floor, round(count * seconds / 10))


def paper_dense(seed, seconds):
    """The top of Fig. 5b: 480x480, 102,400 agents (density index 40), ACO."""
    rng = _rng("paper_dense", seed)
    steps = _scaled(200, seconds, 20)
    simt = _scaled(20, seconds, 4)
    return [
        "kind paper",
        "scenario paper_corridor",
        "agents_per_side 51200",
        "model aco",
        "setup_reps 10",
        "seeds " + _seeds(rng, 1),
        "rounds 40",
        f"engine cpu1 cpu 1 3 {steps}",
        f"engine cpu4 cpu 4 3 {steps}",
        f"engine sharded4 sharded:4 4 3 {steps}",
        f"engine simt simt 1 2 {simt}",
    ]


def paper_sparse(seed, seconds):
    """paper_corridor as registered (480x480, 2,560 agents, LEM) over
    several seeds, each run to the registry's 500 steps."""
    rng = _rng("paper_sparse", seed)
    return [
        "kind paper",
        "scenario paper_corridor",
        "setup_reps 300",
        "seeds " + _seeds(rng, _scaled(8, seconds, 2)),
        "rounds 5",
        "engine cpu1 cpu 1 5 495",
        "engine cpu4 cpu 4 5 495",
        "engine sharded4 sharded:4 4 5 495",
        "engine simt simt 1 2 15",
    ]


def registry_sweep(seed, seconds):
    """Every other registry scenario with its own model and default steps,
    cold setup per run, serial; passes cycle through three seeds until
    --seconds have passed (at least three passes)."""
    rng = _rng("registry_sweep", seed)
    return [
        "kind sweep",
        "exclude paper_corridor",
        "pass_seeds " + _seeds(rng, 3),
        f"seconds {seconds}",
        "min_passes 3",
    ]


def server_mix(seed, seconds):
    """A closed loop of 2 connections x 2 jobs in flight for --seconds."""
    rng = _rng("server_mix", seed)
    lines = [
        "kind server",
        "exclude paper_corridor",
        "connections 2",
        "inflight 2",
        f"seconds {seconds}",
        "setup_reps 8",
        "seeds " + _seeds(rng, 2),
    ]
    # Variant i copies the (i // 3)-th scenario of its class, whatever the
    # seed, so every seed builds the same fields; the seed only shifts the
    # events.
    for i in range(VARIANTS):
        cls = VARIANT_CLASSES[i % len(VARIANT_CLASSES)]
        lines.append(f"variant v{i} {cls} {i // len(VARIANT_CLASSES)} "
                     f"{rng.randrange(1, 9)}")
    weights = [1.0 / (i + 1) for i in range(VARIANTS)]
    for _ in range(JOBS):
        if rng.random() < TEXT_SHARE:
            v = rng.choices(range(VARIANTS), weights)[0]
            lines.append(f"job T v{v} 0")
        else:
            lines.append(f"job R {rng.randrange(1 << 16)} {rng.randrange(2)}")
    return lines


def make_plan(workload, seed, seconds):
    builders = {
        "paper_dense": paper_dense,
        "paper_sparse": paper_sparse,
        "registry_sweep": registry_sweep,
        "server_mix": server_mix,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](seed, seconds)
