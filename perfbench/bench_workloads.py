"""The benchmark's workloads: inputs from a seed, one timed unit, checks.

Each workload is driven through the public Python API by one closed-loop
client (this process): it issues the next request only after the previous
one returned.  A workload builds every input from the run's seed during
set-up, then runs numbered *units* (one ``compare_schedulers`` call, or one
``run_campaign`` pass); unit ``i`` always gets the same inputs for the same
seed, whichever commit runs it.  Every unit reports the number of *cells* it
produced (one cell = one scheduler simulated on one workload instance: a
scheduler x repeat of a comparison, or one campaign cell), the wall-clock of
the program call alone, and its aggregates as JSON-ready data.

Correctness checks: every comparison aggregate is finite, and one extra
repeat per scheduler passes ``validate_simulation``; a cold campaign pass
computes every cell; a warm pass computes none and folds aggregates equal to
the cold pass's, bit for bit.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.campaigns as campaigns
import repro.experiments as experiments
from repro.analysis.schedule_check import validate_simulation
from repro.cluster.topology import heterogeneous_cluster
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import simulate_schedule
from repro.workloads.generator import generate_workload
from repro.workloads.suites import normal_paper_workload

from bench_trace import CAMPAIGN_JOBS, SCHEDULER_NAMES

#: Mean per-link communication cost of the paper's makespan conditions (s).
MEAN_COMM_COST = 20.0
#: The dynamics scenarios of the campaign workloads (event-engine paths).
CAMPAIGN_SCENARIOS = ("steady-state", "failure-storm", "straggler-node", "heavy-tail-mix")
#: GA generation cap of the verification repeat's GA schedulers.  Schedule
#: validity is structural, so the check does not need the full budget.
VERIFY_GENERATIONS = 10


def unit_seed(seed: int, index: int) -> int:
    """The integer seed of unit *index* of a run seeded with *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class UnitResult:
    """What one unit produced."""

    cells: int
    wall_s: float
    aggregates: Dict
    focus_ratio: float
    focus_efficiency: float
    failures: List[str] = field(default_factory=list)


def _focus_quality(makespans: Dict[str, float], efficiencies: Dict[str, float], focus: str):
    """Focus scheduler's makespan over the best other's, and its efficiency."""
    best_other = min(value for name, value in makespans.items() if name != focus)
    return makespans[focus] / best_other, efficiencies[focus]


def _all_finite(values: object) -> bool:
    if isinstance(values, dict):
        return all(_all_finite(v) for v in values.values())
    if isinstance(values, (list, tuple)):
        return all(_all_finite(v) for v in values)
    return math.isfinite(float(values))


class Workload:
    """Common shape of the benchmark's workloads."""

    name = ""
    #: Units every untraced run executes, whatever ``--seconds`` says; the
    #: quality metrics are computed over exactly these units.
    min_units = 1
    #: Units of the traced pass; the digest covers exactly these units.
    trace_units = 1

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def run_unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def verify(self) -> Tuple[int, List[str]]:
        """Checks run once, outside the timed section: (operations, failures)."""
        return 0, []

    def close(self) -> None:
        pass


class CompareWorkload(Workload):
    """``compare_schedulers`` on the paper's normal workload, arriving at once."""

    def __init__(
        self,
        name: str,
        *,
        n_tasks: int,
        n_processors: int,
        schedulers: Sequence[str],
        focus: str,
        max_generations: int,
        min_units: int,
        trace_units: int,
    ) -> None:
        self.name = name
        self.n_tasks = n_tasks
        self.n_processors = n_processors
        self.schedulers = tuple(schedulers)
        self.focus = focus
        self.max_generations = max_generations
        self.min_units = min_units
        self.trace_units = trace_units

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.spec = normal_paper_workload(self.n_tasks)
        self.scale = experiments.get_scale("paper").scaled(
            n_processors=self.n_processors,
            max_generations=self.max_generations,
            repeats=1,
        )
        # Warm-up: one tiny comparison over the same schedulers loads every
        # lazily imported module and kernel before the clock starts.
        experiments.compare_schedulers(
            normal_paper_workload(40),
            self.scale.scaled(n_processors=4, max_generations=2, batch_size=10),
            mean_comm_cost=MEAN_COMM_COST,
            scheduler_names=self.schedulers,
            seed=seed,
        )

    def run_unit(self, index: int) -> UnitResult:
        start = time.perf_counter()
        result = experiments.compare_schedulers(
            self.spec,
            self.scale,
            mean_comm_cost=MEAN_COMM_COST,
            scheduler_names=self.schedulers,
            seed=unit_seed(self.seed, index),
        )
        wall = time.perf_counter() - start
        aggregates = {
            name: [
                cmp.makespan.mean,
                cmp.makespan.std,
                cmp.efficiency.mean,
                cmp.efficiency.std,
                cmp.mean_response_time.mean,
                cmp.invocations.mean,
            ]
            for name, cmp in result.schedulers.items()
        }
        failures = [] if _all_finite(aggregates) else [f"unit {index}: non-finite aggregate"]
        ratio, efficiency = _focus_quality(
            result.makespans(), result.efficiencies(), self.focus
        )
        return UnitResult(
            cells=len(self.schedulers) * result.repeats,
            wall_s=wall,
            aggregates=aggregates,
            focus_ratio=ratio,
            focus_efficiency=efficiency,
            failures=failures,
        )

    def verify(self) -> Tuple[int, List[str]]:
        """One repeat per scheduler through ``simulate_schedule``, validated."""
        streams = np.random.SeedSequence([self.seed, 2**32 - 1]).spawn(4)
        workload_rng, cluster_rng, sim_rng, sched_rng = (
            np.random.default_rng(s) for s in streams
        )
        tasks = generate_workload(self.spec, workload_rng)
        cluster = heterogeneous_cluster(
            self.n_processors, mean_comm_cost=MEAN_COMM_COST, rng=cluster_rng
        )
        sim_seed = int(sim_rng.integers(0, 2**31 - 1))
        failures = []
        for name in self.schedulers:
            scheduler = make_scheduler(
                name,
                n_processors=self.n_processors,
                batch_size=self.scale.batch_size,
                max_generations=min(self.max_generations, VERIFY_GENERATIONS),
                rng=int(sched_rng.integers(0, 2**31 - 1)),
            )
            try:
                result = simulate_schedule(scheduler, cluster, tasks, rng=sim_seed)
                report = validate_simulation(result, tasks)
            except Exception as exc:  # a crash is a failed check, not a lost run
                failures.append(f"verify {name}: {type(exc).__name__}: {exc}")
                continue
            if not report.ok:
                failures.append(f"verify {name}: {report.summary()}: {report.issues[:3]}")
        return len(self.schedulers), failures


class CampaignWorkload(Workload):
    """``run_campaign`` over the dynamics scenarios x the seven schedulers.

    ``cold`` runs each unit into a fresh store (every cell computed and
    persisted); ``warm`` fills one store during set-up and runs each unit
    against it (every cell served from the store).
    """

    def __init__(self, name: str, *, cold: bool, repeats: int, min_units: int, trace_units: int):
        self.name = name
        self.cold = cold
        self.repeats = repeats
        self.min_units = min_units
        self.trace_units = trace_units
        self.store_dir: Optional[str] = None

    def _spec(self, repeats: int, tag: str) -> "campaigns.CampaignSpec":
        return campaigns.CampaignSpec(
            name=f"perfbench-{tag}",
            scale="smoke",
            seed=self.seed,
            scenarios=CAMPAIGN_SCENARIOS,
            schedulers=SCHEDULER_NAMES,
            repeats=repeats,
        )

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = self._spec(self.repeats, self.name)
        if self.cold:
            # Warm-up: a one-repeat campaign into a throwaway store.
            warmup_dir = tempfile.mkdtemp(dir=workdir)
            campaigns.run_campaign(
                self._spec(1, "warmup"), campaigns.ResultStore(warmup_dir), jobs=CAMPAIGN_JOBS
            )
            shutil.rmtree(warmup_dir)
        else:
            # The warm workload's set-up is the cold pass that fills its store.
            self.store_dir = tempfile.mkdtemp(dir=workdir)
            result = campaigns.run_campaign(
                self.spec, campaigns.ResultStore(self.store_dir), jobs=CAMPAIGN_JOBS
            )
            if result.computed != result.total_cells or result.aggregates is None:
                raise RuntimeError(
                    f"set-up cold pass computed {result.computed} of {result.total_cells} cells"
                )
            self.cold_aggregates = result.aggregates

    def _quality(self, aggregates: Dict):
        ratios, efficiencies = [], []
        for by_scheduler in aggregates["scenarios"].values():
            ratio, efficiency = _focus_quality(
                {name: row["makespan_mean"] for name, row in by_scheduler.items()},
                {name: row["efficiency_mean"] for name, row in by_scheduler.items()},
                "PN",
            )
            ratios.append(ratio)
            efficiencies.append(efficiency)
        return float(np.mean(ratios)), float(np.mean(efficiencies))

    def run_unit(self, index: int) -> UnitResult:
        store_dir = tempfile.mkdtemp(dir=self.workdir) if self.cold else self.store_dir
        start = time.perf_counter()
        result = campaigns.run_campaign(
            self.spec, campaigns.ResultStore(store_dir), jobs=CAMPAIGN_JOBS
        )
        wall = time.perf_counter() - start
        if self.cold:
            shutil.rmtree(store_dir)
        failures = []
        if result.aggregates is None or result.interrupted:
            failures.append(f"unit {index}: campaign did not complete")
        if self.cold and (result.computed != result.total_cells or result.cached):
            failures.append(
                f"unit {index}: cold pass computed {result.computed} "
                f"of {result.total_cells} cells ({result.cached} cached)"
            )
        if not self.cold:
            if result.computed or result.cached != result.total_cells:
                failures.append(f"unit {index}: warm pass computed {result.computed} cells")
            if result.aggregates != self.cold_aggregates:
                failures.append(f"unit {index}: warm aggregates differ from the cold pass")
        if failures:
            return UnitResult(result.total_cells, wall, {}, 1.0, 1.0, failures)
        ratio, efficiency = self._quality(result.aggregates)
        return UnitResult(
            cells=result.total_cells,
            wall_s=wall,
            aggregates=result.aggregates,
            focus_ratio=ratio,
            focus_efficiency=efficiency,
        )

    def close(self) -> None:
        if self.store_dir is not None and os.path.isdir(self.store_dir):
            shutil.rmtree(self.store_dir)


def make_workload(name: str, tiny: bool = False) -> Workload:
    """Build the named workload at its benchmark shape (or a seconds-long tiny one)."""
    if name == "pn-fig5":
        return CompareWorkload(
            name,
            n_tasks=60 if tiny else 1000,
            n_processors=5 if tiny else 50,
            schedulers=SCHEDULER_NAMES,
            focus="PN",
            max_generations=4 if tiny else 100,
            min_units=1 if tiny else 3,
            trace_units=1,
        )
    if name == "heuristics-10k":
        return CompareWorkload(
            name,
            n_tasks=300 if tiny else 10000,
            n_processors=5 if tiny else 50,
            schedulers=("EF", "LL", "RR", "MM", "MX"),
            focus="MM",
            max_generations=4 if tiny else 100,
            min_units=1 if tiny else 16,
            trace_units=1 if tiny else 4,
        )
    if name == "campaign-cold":
        return CampaignWorkload(
            name,
            cold=True,
            repeats=1 if tiny else 15,
            min_units=1 if tiny else 2,
            trace_units=1,
        )
    if name == "campaign-warm":
        return CampaignWorkload(
            name,
            cold=False,
            repeats=1 if tiny else 5,
            min_units=1 if tiny else 10,
            trace_units=1 if tiny else 10,
        )
    raise KeyError(f"unknown workload {name!r}")
