"""Tests for the batch problem and the relative-error fitness function."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import (
    BatchProblem,
    completion_times,
    evaluate_assignments,
)
from repro.util.errors import ConfigurationError
from repro.workloads import Task


def make_problem(sizes, rates, pending=None, comm=None):
    return BatchProblem(
        task_ids=np.arange(len(sizes)),
        sizes=np.asarray(sizes, dtype=float),
        rates=np.asarray(rates, dtype=float),
        pending_loads=np.zeros(len(rates)) if pending is None else np.asarray(pending, float),
        comm_costs=np.zeros(len(rates)) if comm is None else np.asarray(comm, float),
    )


class TestBatchProblem:
    def test_dimensions(self, small_problem):
        assert small_problem.n_tasks == 12
        assert small_problem.n_processors == 4

    def test_optimal_time_formula(self):
        problem = make_problem([100, 200], [50, 50], pending=[100, 0])
        # psi = 300/100 + (100/50 + 0) = 3 + 2 = 5
        assert problem.optimal_time() == pytest.approx(5.0)

    def test_pending_times(self):
        problem = make_problem([10], [10, 20], pending=[100, 40])
        assert problem.pending_times() == pytest.approx([10.0, 2.0])

    def test_execution_times_matrix(self):
        problem = make_problem([100, 50], [10, 100])
        expected = np.array([[10.0, 1.0], [5.0, 0.5]])
        assert np.allclose(problem.execution_times(), expected)

    def test_lower_bound_at_least_largest_task(self):
        problem = make_problem([1000, 1], [10, 1000])
        assert problem.lower_bound_makespan() >= 1000 / 1000

    def test_from_tasks(self):
        tasks = [Task(task_id=5, size_mflops=10.0), Task(task_id=7, size_mflops=20.0)]
        problem = BatchProblem.from_tasks(tasks, rates=[1.0, 2.0])
        assert problem.task_ids.tolist() == [5, 7]
        assert problem.sizes.tolist() == [10.0, 20.0]

    def test_cost_table_is_execution_plus_communication(self):
        problem = make_problem([10.0, 30.0, 5.0], [2.0, 4.0], pending=[8.0, 0.0], comm=[1.0, 3.0])
        expected = problem.sizes[:, None] / problem.rates[None, :] + problem.comm_costs[None, :]
        assert np.array_equal(problem.cost_table, expected.ravel())
        assert problem.task_offsets.tolist() == [0, 2, 4]
        assert problem.pending_times().tolist() == [4.0, 0.0]

    def test_cached_tables_and_fields_are_read_only(self):
        problem = make_problem([10.0, 30.0], [2.0, 4.0], comm=[1.0, 3.0])
        arrays = {
            "cost_table": problem.cost_table,
            "task_offsets": problem.task_offsets,
            "pending_times": problem.pending_times(),
            "sizes": problem.sizes,
            "rates": problem.rates,
            "pending_loads": problem.pending_loads,
            "comm_costs": problem.comm_costs,
            "task_ids": problem.task_ids,
        }
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(AttributeError):
            problem.rates = np.ones(2)

    def test_inputs_are_copied_not_frozen(self):
        rates = np.array([2.0, 4.0])
        problem = make_problem([10.0], rates)
        rates[0] = 100.0  # the caller's array stays theirs
        assert rates.flags.writeable
        assert problem.rates.tolist() == [2.0, 4.0]
        assert problem.cost_table.tolist() == [5.0, 2.5]

    def test_pickle_round_trip_rebuilds_read_only_tables(self):
        import pickle

        problem = make_problem([10.0, 30.0], [2.0, 4.0], pending=[1.0, 2.0], comm=[7.0, 9.0])
        copy = pickle.loads(pickle.dumps(problem))
        assert np.array_equal(copy.cost_table, problem.cost_table)
        assert copy.optimal_time() == problem.optimal_time()
        assert not copy.cost_table.flags.writeable
        assert not copy.pending_times().flags.writeable

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sizes=[0.0], rates=[1.0]),
            dict(sizes=[1.0], rates=[0.0]),
            dict(sizes=[1.0], rates=[1.0], pending=[-1.0]),
            dict(sizes=[1.0], rates=[1.0], comm=[-1.0]),
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_problem(**kwargs)

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchProblem(
                task_ids=np.array([1, 1]),
                sizes=np.array([1.0, 2.0]),
                rates=np.array([1.0]),
                pending_loads=np.zeros(1),
                comm_costs=np.zeros(1),
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_problem([], [1.0])


class TestCompletionTimes:
    def test_hand_computed_example(self):
        # two tasks, two processors; tasks both on proc 0
        problem = make_problem([100, 200], [10, 20], comm=[1.0, 2.0])
        completions = completion_times(np.array([[0, 0]]), problem)
        # proc0: 100/10 + 1 + 200/10 + 1 = 32 ; proc1: 0
        assert completions[0, 0] == pytest.approx(32.0)
        assert completions[0, 1] == pytest.approx(0.0)

    def test_pending_load_included(self):
        problem = make_problem([100], [10, 10], pending=[50, 0])
        completions = completion_times(np.array([[1]]), problem)
        assert completions[0, 0] == pytest.approx(5.0)  # 50/10 pending
        assert completions[0, 1] == pytest.approx(10.0)

    def test_population_shape(self, small_problem):
        pop = np.zeros((7, small_problem.n_tasks), dtype=int)
        assert completion_times(pop, small_problem).shape == (7, 4)

    def test_invalid_processor_index_rejected(self, small_problem):
        bad = np.full((1, small_problem.n_tasks), 99)
        with pytest.raises(ConfigurationError):
            completion_times(bad, small_problem)

    def test_wrong_task_count_rejected(self, small_problem):
        with pytest.raises(ConfigurationError):
            completion_times(np.zeros((1, 3), dtype=int), small_problem)


class TestEvaluate:
    def test_perfectly_balanced_has_highest_fitness(self):
        # two identical tasks on two identical processors: balanced vs stacked
        problem = make_problem([100, 100], [10, 10])
        result = evaluate_assignments(np.array([[0, 1], [0, 0]]), problem)
        assert result.fitness[0] > result.fitness[1]
        assert result.makespans[0] < result.makespans[1]

    def test_fitness_is_inverse_error(self):
        problem = make_problem([100, 100], [10, 10])
        result = evaluate_assignments(np.array([[0, 0]]), problem)
        assert result.fitness[0] == pytest.approx(1.0 / result.errors[0])

    def test_makespan_is_max_completion(self, small_problem):
        assignment = np.zeros(small_problem.n_tasks, dtype=int)
        result = evaluate_assignments(assignment, small_problem)
        assert result.makespans[0] == pytest.approx(result.completions[0].max())

    def test_best_index_selects_lowest_makespan(self):
        problem = make_problem([100, 100], [10, 10])
        result = evaluate_assignments(np.array([[0, 0], [0, 1]]), problem)
        assert result.best_index == 1
        assert result.best_makespan == result.makespans[1]

    def test_communication_costs_increase_completion(self):
        base = make_problem([100], [10, 10])
        with_comm = make_problem([100], [10, 10], comm=[5.0, 5.0])
        a = completion_times(np.array([[0]]), base)[0, 0]
        b = completion_times(np.array([[0]]), with_comm)[0, 0]
        assert b == pytest.approx(a + 5.0)


class TestFitnessProperties:
    @given(
        n_tasks=st.integers(min_value=1, max_value=20),
        n_procs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_at_least_optimal_over_procs(self, n_tasks, n_procs, seed):
        """Property: any schedule's makespan >= total work / total rate (psi without pending)."""
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(1, 100, n_tasks)
        rates = rng.uniform(1, 50, n_procs)
        problem = make_problem(sizes, rates)
        assignment = rng.integers(0, n_procs, n_tasks)
        result = evaluate_assignments(assignment, problem)
        assert result.makespans[0] >= problem.optimal_time() - 1e-9

    @given(
        n_tasks=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_errors_and_fitness_are_positive_and_finite(self, n_tasks, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.uniform(1, 100, n_tasks)
        problem = make_problem(sizes, [10.0, 25.0, 40.0], comm=[0.5, 1.0, 0.1])
        pop = rng.integers(0, 3, size=(8, n_tasks))
        result = evaluate_assignments(pop, problem)
        assert np.all(np.isfinite(result.errors))
        assert np.all(result.fitness > 0)
        assert np.all(result.makespans > 0)
