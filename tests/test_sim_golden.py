"""Golden seeded simulations of every scheduler on every paper workload.

``tests/test_ga_golden.py`` pins the GA and the PN/ZO makespans; this file
pins the rest of what a figure is computed from: one seeded simulation per
(paper workload, scheduler) pair, digested over its makespan, efficiency,
mean response time, scheduling bookkeeping and every per-task trace column.
Floats enter the digest through ``float.hex``, so a last-bit change in any
layer (workload generation, cluster building, a policy kernel, the GA, the
simulator) fails here.  Such a change alters seeded outputs, so it must
bump ``CODE_CONTRACT_VERSION`` and re-record these digests on purpose.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster.topology import heterogeneous_cluster
from repro.schedulers.registry import ALL_SCHEDULER_NAMES, make_scheduler
from repro.sim import simulate_schedule
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

TRACE_COLUMNS = (
    "task_id",
    "proc_id",
    "assigned_time",
    "dispatch_time",
    "exec_start",
    "exec_end",
)

#: SHA-256 of :func:`simulation_record` per ``workload/scheduler``.
GOLDEN_SIMULATION_SHA256 = {
    "normal/EF": "6763a10ad5ecfdd90e82a720505b787ab8e4fb0f01054bd5dd3c1952a6d3593c",
    "normal/LL": "e5caed3607cc437a0992e704e9a5ca39e3bf450acc446b2cbeb6526297404343",
    "normal/MM": "b8af5b729dcb2d07e4abbecff3886a9244fc7abcb614603998687f04f406ffff",
    "normal/MX": "5e03f764f4769f9ecc7a3b0a1910c966fd79d885fbc0f15f6b1fcd22e239c2ac",
    "normal/PN": "25d757231b2c8da4515113a7487646ac637882ebe89e067678500f3ac87419f5",
    "normal/RR": "d2a1ffec683e0531f189f2be859a75c0611318242f25aacb0f300120857fdc3d",
    "normal/ZO": "b635071a97f6b8ba83a379a88e7e825c83890f1f1d29eb6913c91a0ec0130884",
    "poisson_large/EF": "851f6042f924bdad49ff05ec541969d6ce0e3c8e9d30c49b5a32e97d18d0728b",
    "poisson_large/LL": "2e4851429f2fff36075889e802b2affae361b4fb424c1e844a65d108442ba2ce",
    "poisson_large/MM": "5dc4927011ae3e9812d3f8d0c933856349c887707cdef06506906d06a9537a92",
    "poisson_large/MX": "4140958ea122ccb4fafe6b10aef6b9465d2014373524c146ce0429f3f49ce487",
    "poisson_large/PN": "ad27bc51ceccbb7a2ec0b316e9b42ac9585887ab4860957b33b43f2f3f10b214",
    "poisson_large/RR": "ae5505154ebe30c3782875fdf1db4231376c346d74ed8e8ffdecf43ee5c2463e",
    "poisson_large/ZO": "6482209707295780417911a70d429b5dc0016dad8bb7e13a14d1a217233359da",
    "poisson_small/EF": "b39f83a3a73331d4e0bc5b39b5a0377d6f64f3286d6ca20e7aac77f25b4ed657",
    "poisson_small/LL": "c3d78bcdab721bd224b58aac8a1c1fc3b6b9448f8aee633235f4e8627e330c39",
    "poisson_small/MM": "7e192b5e5593b76663f9166235976993426e76cefc199ed322989a5b4eb18aff",
    "poisson_small/MX": "1242fb90b2bd43b3221b7ab174561780c82320226422266f6f5cf39c91e1da70",
    "poisson_small/PN": "41d2207b7cdff80538ec3d242a9b425c22c15f14b2e4efbc2ea6da4dd8cfd19e",
    "poisson_small/RR": "881294ea3dff97007eef8ccdda5133d601a55feddee708d97f76a8befa145a8f",
    "poisson_small/ZO": "1143855174d7db68f6fdc35dd1d976e5c661a6960bdc0fd05bf953c652224fa1",
    "uniform_narrow/EF": "c3e20f633c43f4b328a5316e3b981fa8a97ef7d0656e95a7922b9d4f92b8f689",
    "uniform_narrow/LL": "de76202686143cd55f0d69dd4189acdda382ad92ebf613a4f90dabc92cc88f68",
    "uniform_narrow/MM": "a6184ec5f63f1cec383cce14f9a444142b1b344349d920ddd37ed40ed8d3201f",
    "uniform_narrow/MX": "f8b627189e7f6e24bf51ed9629801df6852ada5cc78b9f0f75cd569b886f4766",
    "uniform_narrow/PN": "6b4379347f74b4c17c94415d201200acabf98bd90568bdd0b48849c6e9e945e6",
    "uniform_narrow/RR": "f32dbe6ce4438d791695b2ae741c12b5928c17a6826bb0e7285ece9ce5530b2d",
    "uniform_narrow/ZO": "514dc343c48f569ee2f24c870327c9972a2369cfdd44515f230e86033495b7d6",
    "uniform_standard/EF": "16eb9ef806e9a7c8dddba52c6b3d4ce26cd9d66d058048b735191f609194fb5a",
    "uniform_standard/LL": "3f2dff0f5d32d4e5627decb77d470b8cd43500431ac25580167f6732bc574e9c",
    "uniform_standard/MM": "f566eedab6600d8179a06ab7157881eec161a433a4c01fb16a0ed1f55791e09d",
    "uniform_standard/MX": "4fadcb0c5263ce1f0d6e3fc71ea4cf8dfe14865f907cf70fc0501af55f6f6fa3",
    "uniform_standard/PN": "8b1dd4965eb5110352e23f94985bbdb8b82e766eb1b99831646b7a2f9d7e3cae",
    "uniform_standard/RR": "b2437a6fe8342e4b11861d4ec9f5dd4dd0d023d3de8f0cba40ef2dd805e551f7",
    "uniform_standard/ZO": "aa67abc0960c8ca8f89fe1d9df3fe048605d27bc8c3813a8f29a0799d6947f01",
    "uniform_wide/EF": "68da25b4c1b18e20d40b1ca1b296cf54de9c0ce66cbd313b7b8d969067728f15",
    "uniform_wide/LL": "0556a4fa92bb2efd2c111326e578c2f57693d7efe7a00f983031b25feabeb101",
    "uniform_wide/MM": "61cacc8452682019327d3a5f0ccc24d6fc7d281f5f0f16b63d3ff898d515fc28",
    "uniform_wide/MX": "831c155dc329b3ed6a92cd90c2ec68966314bdf1ea75a540537da17c69aec1f9",
    "uniform_wide/PN": "0fcd2a803eb37c7f98753ff162650e324a503503c77eb1f13e99b953b52f0b45",
    "uniform_wide/RR": "6a5da01a9ba2dddfa8e8b9fcaa573a0604e50e8c7757f9e5547751170417883e",
    "uniform_wide/ZO": "c58c6eefaec881b529f6be1958d8ded1a5c11b2b049a58b6cacb3782fe2ded6f",
}


def _hex(values) -> list:
    return [float(x).hex() for x in np.asarray(values, dtype=float)]


def simulation_record(workload: str, scheduler_name: str) -> dict:
    """The deterministic outputs of one seeded 60-task, 8-processor run."""
    tasks = generate_workload(workload_by_name(workload, 60), np.random.default_rng(31))
    cluster = heterogeneous_cluster(8, mean_comm_cost=5.0, rng=np.random.default_rng(32))
    scheduler = make_scheduler(
        scheduler_name, n_processors=8, batch_size=16, max_generations=15, rng=33
    )
    result = simulate_schedule(scheduler, cluster, tasks, rng=34)
    return {
        "makespan": float(result.makespan).hex(),
        "efficiency": float(result.efficiency).hex(),
        "mean_response_time": float(result.metrics.mean_response_time).hex(),
        "invocations": int(result.scheduler_invocations),
        "batch_sizes": [int(b) for b in result.batch_sizes],
        "trace": {name: _hex(result.trace.column(name)) for name in TRACE_COLUMNS},
    }


def record_sha256(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_SIMULATION_SHA256))
def test_paper_workload_simulation_is_bit_identical(key):
    workload, scheduler_name = key.split("/")
    record = simulation_record(workload, scheduler_name)
    assert record_sha256(record) == GOLDEN_SIMULATION_SHA256[key], record["makespan"]


def test_every_scheduler_and_paper_workload_is_pinned():
    workloads = ["normal", "poisson_large", "poisson_small"]
    workloads += ["uniform_narrow", "uniform_standard", "uniform_wide"]
    expected = {f"{w}/{s}" for w in workloads for s in ALL_SCHEDULER_NAMES}
    assert set(GOLDEN_SIMULATION_SHA256) == expected
