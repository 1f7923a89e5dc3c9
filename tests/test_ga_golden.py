"""Golden seeded outputs of the GA and of a PN simulation, pinned bit for bit.

The campaign store keys results by ``CODE_CONTRACT_VERSION``
(:mod:`repro.campaigns.store`): a cached cell is only valid while the code
would recompute it bit for bit.  A GA or kernel change that moves any value
here changes seeded outputs, so it must bump the contract version and
re-record these values on purpose.  Floats are compared through
``float.hex``, so even a last-bit change fails.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.campaigns.store import CODE_CONTRACT_VERSION
from repro.cluster.topology import heterogeneous_cluster
from repro.core.pn_scheduler import default_pn_ga_config
from repro.ga import BatchProblem, GAConfig, GeneticAlgorithm
from repro.schedulers.registry import make_scheduler
from repro.sim import simulate_schedule
from repro.workloads.generator import generate_workload
from repro.workloads.suites import (
    normal_paper_workload,
    poisson_large_workload,
    uniform_wide_workload,
)

#: Non-empty queues of the best schedule, as ``(processor, task ids)``.
GOLDEN_BEST_QUEUES = [
    (5, [103, 109]),
    (15, [102]),
    (25, [108]),
    (27, [100]),
    (28, [107]),
    (33, [106, 101]),
    (36, [104]),
    (42, [105]),
]
#: ``makespan_history`` run-length encoded as ``(generations, float.hex)``.
GOLDEN_MAKESPAN_HISTORY = [
    (1, "0x1.b13dfb451ee41p+3"),
    (2, "0x1.975bea22e2089p+3"),
    (1, "0x1.8e718fd57ca1fp+3"),
    (1, "0x1.695941be042c9p+3"),
    (1, "0x1.5af65e8815d94p+3"),
    (24, "0x1.573019bc1663ap+3"),
    (5, "0x1.505b07640033ep+3"),
    (11, "0x1.4ab37c71442e4p+3"),
    (1, "0x1.48e0f47cca470p+3"),
    (53, "0x1.4765a9b8cc534p+3"),
]
#: SHA-256 of the JSON list of ``float.hex`` of every generation's mean fitness
#: (it depends on the whole population, not just the best individual).
GOLDEN_MEAN_FITNESS_SHA256 = "22255dea31d4b4fe4cfeabb2affe48cecc80f41077cdf5b8759e7bfaf68e4b72"
GOLDEN_BEST_ERROR = "0x1.e59b2ef45eec2p+5"
#: Makespans of one seeded 60-task, 8-processor simulation per GA scheduler.
GOLDEN_SIM_MAKESPAN = {"PN": "0x1.9f2af7246ce46p+7", "ZO": "0x1.020219a7f71f2p+9"}

#: GA configurations off PN's defaults: ``GAConfig`` overrides and a problem
#: shape ``(tasks, processors)``.  Together they reach every selection and
#: crossover operator, the random and seeded initialisations, several probes
#: and rounds of re-balancing, none, and the one-task and one-processor edges.
GA_VARIANTS = {
    "zo-no-rebalance": ({"n_rebalances": 0}, (10, 50)),
    "random-init": ({"seeded_initialisation": False}, (10, 50)),
    "all-seeded-init": ({"random_init_fraction": 0.0}, (10, 50)),
    "tournament": ({"selection": "tournament"}, (10, 50)),
    "rank": ({"selection": "rank"}, (10, 50)),
    "pmx": ({"crossover": "pmx"}, (10, 50)),
    "order": ({"crossover": "order"}, (10, 50)),
    "no-crossover": ({"crossover_rate": 0.0}, (10, 50)),
    "multi-swap-mutation": ({"swaps_per_mutation": 3, "mutation_rate": 0.9}, (10, 50)),
    "three-rebalances": ({"n_rebalances": 3, "rebalance_probes": 8}, (10, 50)),
    "no-elitism": ({"elitism": 0}, (10, 50)),
    "many-tasks-few-procs": ({"population_size": 30}, (40, 6)),
    "one-processor": ({}, (12, 1)),
    "one-task": ({}, (1, 20)),
}
#: SHA-256 of :func:`ga_result_record` after 40 generations, per variant.
GOLDEN_GA_VARIANT_SHA256 = {
    "all-seeded-init": "d97833a92719219793f6fd55a0fd4fb5f00c3138df2c1e83a0e00bd928e76e67",
    "many-tasks-few-procs": "a404d7b6123539f6fb3ab941475b788ef2a63f508c4f6c367eb6cafcbef96379",
    "multi-swap-mutation": "18ff783fe77506efa4a8ce960383ab0a2c35db333f35403e4ec2c0a1ce3b27ff",
    "no-crossover": "1a2ab60a6b1b89f3d5f2ee78512df5e33473e95dc0b275e51050ae9bd9493641",
    "no-elitism": "72a5639f3e484762e90759f04eb3c16e90087cf60904d869a59f710c7cf6a91c",
    "one-processor": "b93548509867386a0d684a9a9e70bf826541662ff43a713020b4620b8d2f9779",
    "one-task": "a997f8985e882be2539b0213df228871c0e16c9b887b08ac5be13b824a64d696",
    "order": "0b0e9254d03aeb86e2194bcedac400320779a45c05e08e97106e0a301f3e7018",
    "pmx": "e4ba77990cc4500c724bf67b2a9a23d4f6396aee522606277e6eabfd28d72a45",
    "random-init": "a559c5ed1d175063f71e21b1a4e4d72737e259893ceea8d589c63fa0beeb4e78",
    "rank": "7f2d7ee8baaa8c0c34a168be83c4cb02a78a0bdd84277804d6e9d8bfb35c8861",
    "three-rebalances": "a42f2a9e1a1d9df8753d2749d1b3aef7b471ed87aa21b000ee264966fdb40bdf",
    "tournament": "7e44beaa61e4e94ca6d565533148177ead124bfb12c9e719630673d7bf57ca01",
    "zo-no-rebalance": "4ee886c54b07bc2e5ecb9b719767b748c0fefcd47d6a773b0fe6aaea3a8d3b5f",
}
#: Seeded simulations off the 60-task scenario: ``(workload, tasks,
#: processors, mean communication cost)``.
SIM_SCENARIOS = {
    "uniform-wide": (uniform_wide_workload, 50, 5, 5.0),
    "poisson-large": (poisson_large_workload, 80, 12, 40.0),
    "no-communication": (normal_paper_workload, 40, 16, 0.0),
}
#: Makespans (``float.hex``) per scenario and scheduler.
GOLDEN_SCENARIO_MAKESPAN = {
    "no-communication": {"PN": "0x1.b3f599d7dda9ap+3", "ZO": "0x1.6a5af6b2b9fa6p+4"},
    "poisson-large": {"PN": "0x1.f0e32d328353dp+8", "ZO": "0x1.a2ef70399459ep+9"},
    "uniform-wide": {"PN": "0x1.2d2ef39e59a74p+8", "ZO": "0x1.a48aabe77c035p+8"},
}


def pn_shape_problem() -> BatchProblem:
    """A batch at the shape PN runs: 10 tasks (``min_batch``) on 50 processors.

    Pending loads are small, so the batch decides the makespan and the GA
    keeps improving it for most of its 100 generations.
    """
    rng = np.random.default_rng(3)
    return BatchProblem(
        task_ids=np.arange(100, 110),
        sizes=rng.normal(1000.0, 300.0, 10).clip(min=10.0),
        rates=rng.uniform(10.0, 500.0, 50),
        pending_loads=rng.uniform(0.0, 50.0, 50),
        comm_costs=rng.uniform(0.0, 20.0, 50),
    )


def variant_problem(n_tasks: int, n_processors: int) -> BatchProblem:
    """A seeded batch of *n_tasks* on *n_processors*, drawn like :func:`pn_shape_problem`."""
    rng = np.random.default_rng(7)
    return BatchProblem(
        task_ids=np.arange(n_tasks),
        sizes=rng.normal(1000.0, 300.0, n_tasks).clip(min=10.0),
        rates=rng.uniform(10.0, 500.0, n_processors),
        pending_loads=rng.uniform(0.0, 50.0, n_processors),
        comm_costs=rng.uniform(0.0, 20.0, n_processors),
    )


def ga_result_record(result) -> dict:
    """Every seeded output of a GA run, floats as ``float.hex``."""
    return {
        "queues": result.best_queues,
        "generations": result.generations,
        "stop": str(result.stop_reason),
        "best_error": float(result.best_error).hex(),
        "initial_best": float(result.initial_best_makespan).hex(),
        "makespans": [float(x).hex() for x in result.makespan_history],
        "mean_fitness": [float(x).hex() for x in result.mean_fitness_history],
    }


def run_variant(name: str) -> dict:
    overrides, (n_tasks, n_processors) = GA_VARIANTS[name]
    config = GAConfig(**{**vars(default_pn_ga_config(40)), **overrides})
    result = GeneticAlgorithm(config, rng=11).evolve(variant_problem(n_tasks, n_processors))
    return ga_result_record(result)


def scenario_makespan(scenario: str, scheduler_name: str) -> str:
    workload, n_tasks, n_processors, comm = SIM_SCENARIOS[scenario]
    tasks = generate_workload(workload(n_tasks), rng=21)
    cluster = heterogeneous_cluster(n_processors, mean_comm_cost=comm, rng=22)
    scheduler = make_scheduler(
        scheduler_name, n_processors=n_processors, max_generations=20, rng=23
    )
    return float(simulate_schedule(scheduler, cluster, tasks, rng=24).makespan).hex()


def hex_sha256(values) -> str:
    hexes = [float(value).hex() for value in values]
    return hashlib.sha256(json.dumps(hexes).encode()).hexdigest()


def test_contract_version_is_the_recorded_one():
    assert CODE_CONTRACT_VERSION == "1"


def test_pn_shape_evolve_is_bit_identical():
    result = GeneticAlgorithm(default_pn_ga_config(100), rng=3).evolve(pn_shape_problem())
    assert result.generations == 100
    queues = [(proc, queue) for proc, queue in enumerate(result.best_queues) if queue]
    assert queues == GOLDEN_BEST_QUEUES
    history = [
        (len(list(run)), value)
        for value, run in itertools.groupby(float(x).hex() for x in result.makespan_history)
    ]
    assert history == GOLDEN_MAKESPAN_HISTORY
    assert float(result.best_makespan).hex() == GOLDEN_MAKESPAN_HISTORY[-1][1]
    assert float(result.best_error).hex() == GOLDEN_BEST_ERROR
    assert hex_sha256(result.mean_fitness_history) == GOLDEN_MEAN_FITNESS_SHA256


def test_pn_and_zo_simulation_makespans_are_bit_identical():
    tasks = generate_workload(normal_paper_workload(60), rng=3)
    cluster = heterogeneous_cluster(8, mean_comm_cost=20.0, rng=4)
    for name, expected in GOLDEN_SIM_MAKESPAN.items():
        scheduler = make_scheduler(name, n_processors=8, max_generations=30, rng=5)
        result = simulate_schedule(scheduler, cluster, tasks, rng=6)
        assert float(result.makespan).hex() == expected, name


@pytest.mark.parametrize("variant", sorted(GA_VARIANTS))
def test_ga_variant_evolve_is_bit_identical(variant):
    record = run_variant(variant)
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_GA_VARIANT_SHA256[variant]


@pytest.mark.parametrize("scheduler_name", ["PN", "ZO"])
@pytest.mark.parametrize("scenario", sorted(SIM_SCENARIOS))
def test_scenario_simulation_makespan_is_bit_identical(scenario, scheduler_name):
    expected = GOLDEN_SCENARIO_MAKESPAN[scenario][scheduler_name]
    assert scenario_makespan(scenario, scheduler_name) == expected
