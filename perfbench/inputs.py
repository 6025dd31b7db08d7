"""Seeded inputs for every workload.

The benchmark's ``--seed`` is folded onto one of :data:`SEED_SLOTS` input
seeds; everything the program receives (experiment seeds, the cluster's
arrival-trace seed, serve request schedules) is a pure function of that
input seed.  Folding keeps the set of inputs finite, so the output digests
recorded in ``digests.json`` cover every seed the benchmark can be given.
A run that repeats its unit of work takes consecutive seeds for the
repeats, so its median spans several inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Number of distinct input seeds (``--seed`` is taken modulo this).
SEED_SLOTS = 32


def input_seed(seed: int) -> int:
    return seed % SEED_SLOTS


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{input_seed(seed)}")


# ----------------------------------------------------------------------
# paper-repro
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PaperInputs:
    table3_seeds: tuple[int, ...]  # one per DIMM profile A-F
    baseline_seed: int
    figure_seeds: tuple[int, int, int, int]  # Figures 4, 5, 6, 7
    sept_seeds: tuple[int, int]  # guarded block, unguarded control
    #: Fuzzer patterns per Table 3 DIMM campaign (paper bench value).
    table3_budget: int = 35
    #: Patterns for the baseline contrast.
    baseline_budget: int = 320
    trials: int = 5
    accesses: int = 12_000
    sept_rounds: int = 5000


def paper_inputs(seed: int) -> PaperInputs:
    rng = _rng("paper-repro", seed)
    draw = lambda: rng.randrange(1, 1 << 30)  # noqa: E731
    return PaperInputs(
        table3_seeds=tuple(draw() for _ in range(6)),
        baseline_seed=draw(),
        figure_seeds=(draw(), draw(), draw(), draw()),
        sept_seeds=(draw(), draw()),
    )


# ----------------------------------------------------------------------
# cluster-place
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterInputs:
    """A reduced cluster campaign with the 1000-host headline's shape
    (100 arrivals per host, sharded admission, attack scenario at
    budget 2), small enough that a run times many of them."""

    seed: int
    hosts: int = 16
    vms: int = 1600
    shards: int = 2
    budget: int = 2


def cluster_inputs(seed: int) -> ClusterInputs:
    return ClusterInputs(seed=_rng("cluster-place", seed).randrange(1, 1 << 30))


# ----------------------------------------------------------------------
# serve-churn / serve-reads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeShape:
    """Fixed shape of one serve workload; only the draws vary by seed."""

    #: (op, weight) pairs for the timed schedule.
    mix: tuple[tuple[str, int], ...]
    #: Offered rate (req/s) at which latency is reported.
    reference_rps: int
    #: Ascending offered rates probed for the highest sustainable one.
    ladder_rps: tuple[int, ...]
    #: p99 latency limit a ladder step must meet.
    p99_limit_ms: float
    hosts: int = 4
    #: VMs placed before timing starts.
    prefill: int = 8
    sizes_mib: tuple[int, ...] = (1, 2, 2, 3, 4)
    attack_budget: int = 2


SERVE_SHAPES = {
    "serve-churn": ServeShape(
        mix=(("place", 12), ("evict", 12), ("capacity", 2), ("health", 3),
             ("attack", 1)),
        reference_rps=60,
        ladder_rps=(75, 95, 120, 150, 190, 240),
        p99_limit_ms=250.0,
    ),
    "serve-reads": ServeShape(
        mix=(("capacity", 40), ("health", 30), ("metrics", 15), ("info", 13),
             ("place", 1), ("evict", 1)),
        reference_rps=600,
        ladder_rps=(900, 1150, 1450, 1800, 2200, 2700),
        p99_limit_ms=100.0,
    ),
}


@dataclass(frozen=True)
class Step:
    """One constant-rate step of the open-loop schedule, made of equal
    windows that each carry the workload's exact op mix."""

    rate: int
    windows: int
    window_s: float
    reference: bool

    @property
    def duration_s(self) -> float:
        return self.windows * self.window_s


@dataclass(frozen=True)
class Slot:
    """One scheduled request: due time from its step's start, step index,
    op, VM size for a place, and target host for an attack."""

    due_s: float
    step: int
    op: str
    size_mib: int
    host: int


@dataclass(frozen=True)
class ServeInputs:
    shape: ServeShape
    service_seed: int
    prefill_sizes: tuple[int, ...]
    steps: tuple[Step, ...]
    slots: tuple[Slot, ...]


#: Pause between steps so one step's backlog does not leak into the next.
STEP_GAP_S = 0.3
#: Length of one reference-step window; every window carries the same
#: multiset of requests.
WINDOW_S = 0.5


def _stratified(rng: random.Random, weighted: list, count: int) -> list:
    """*count* draws from ``(item, weight)`` pairs in exact proportion
    (largest remainder), shuffled: every seed gets the same multiset and
    only the order differs."""
    total = sum(w for _, w in weighted)
    quotas = [(count * w / total, i) for i, (_, w) in enumerate(weighted)]
    counts = [int(q) for q, _ in quotas]
    by_remainder = sorted(quotas, key=lambda qi: (int(qi[0]) - qi[0], qi[1]))
    for _, i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    out = [item for (item, _), n in zip(weighted, counts) for _ in range(n)]
    rng.shuffle(out)
    return out


def serve_inputs(workload: str, seed: int, seconds: float) -> ServeInputs:
    """The whole open-loop schedule: a reference step of
    :data:`WINDOW_S` windows taking half of the run's *seconds*, then the
    ladder steps sharing the other half."""
    shape = SERVE_SHAPES[workload]
    rng = _rng(workload, seed)
    rung_s = max(0.25, seconds / 2 / len(shape.ladder_rps) - STEP_GAP_S)
    steps = [Step(shape.reference_rps, max(1, int(seconds / 2 / WINDOW_S)), WINDOW_S, True)]
    steps += [Step(rate, 1, rung_s, False) for rate in shape.ladder_rps]
    sizes_mib = [(size, 1) for size in shape.sizes_mib]
    slots = []
    for index, step in enumerate(steps):
        per_window = int(step.rate * step.window_s)
        interval = 1.0 / step.rate
        for window in range(step.windows):
            ops = _stratified(rng, list(shape.mix), per_window)
            sizes = iter(_stratified(rng, sizes_mib, ops.count("place")))
            for i, op in enumerate(ops):
                slots.append(
                    Slot(
                        due_s=(window * per_window + i) * interval,
                        step=index,
                        op=op,
                        size_mib=next(sizes) if op == "place" else 0,
                        host=rng.randrange(shape.hosts),
                    )
                )
    return ServeInputs(
        shape=shape,
        service_seed=rng.randrange(1, 1 << 30),
        prefill_sizes=tuple(_stratified(rng, sizes_mib, shape.prefill)),
        steps=tuple(steps),
        slots=tuple(slots),
    )
