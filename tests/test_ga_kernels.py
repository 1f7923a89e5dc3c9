"""Tests for the population-batched GA operator kernels (`repro.ga.kernels`).

Three layers of guarantees are covered:

* **bit-identical backend parity** — for a fixed seed, the loop oracle
  (``tests/oracles.py``) and the vectorized production kernels produce
  identical results wherever the operators are deterministic given their
  draws (cycle crossover, swap mutation, selection, decoding), including
  whole `evolve` runs with re-balancing disabled;
* **invariant preservation** (hypothesis) — the vectorized kernels keep
  every chromosome a permutation of its symbol set, keep assignment/
  chromosome matrices consistent, and never increase the schedule error when
  re-balancing — the same invariants `test_property_invariants.py` pins for
  the per-individual operators;
* **statistical equivalence** — the vectorized re-balancing heuristic, whose
  random draws are value-dependent and therefore not stream-identical to the
  loop implementation, matches it in aggregate effect.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ga import (
    BatchProblem,
    GAConfig,
    GeneticAlgorithm,
    cycle_crossover_batch,
    decode_assignment,
    decode_population,
    draw_swap_positions,
    evaluate_assignments,
    rebalance_population,
    roulette_select,
    swap_positions_batch,
    validate_chromosome,
)
from repro.ga.crossover import (
    CycleCrossover,
    OrderCrossover,
    PartiallyMappedCrossover,
    find_cycles,
)
from repro.ga.kernels import VectorizedBackend, cycle_labels
from repro.ga.population import random_population
from repro.util.errors import ConfigurationError, EncodingError

from oracles import GA_KERNELS, apply_position_swaps

BACKENDS = list(GA_KERNELS)


def random_problem(rng, n_tasks, n_procs):
    return BatchProblem(
        task_ids=np.arange(n_tasks),
        sizes=rng.uniform(1.0, 1000.0, n_tasks),
        rates=rng.uniform(10.0, 500.0, n_procs),
        pending_loads=rng.uniform(0.0, 500.0, n_procs),
        comm_costs=rng.uniform(0.0, 2.0, n_procs),
    )


def is_valid_chromosome(row, n_tasks, n_procs):
    """A permutation of the ``H`` task indices and the ``M-1`` distinct delimiters."""
    try:
        validate_chromosome(row, n_tasks, n_procs)
    except EncodingError:
        return False
    return True


def random_parent_pair(rng, n_tasks, n_procs):
    symbols = np.concatenate(
        [np.arange(n_tasks, dtype=int), -np.arange(1, n_procs, dtype=int)]
    )
    return rng.permutation(symbols), rng.permutation(symbols)


class TestBatchedDecode:
    @given(
        n_tasks=st.integers(min_value=1, max_value=40),
        n_procs=st.integers(min_value=1, max_value=10),
        pop=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_row_decode(self, n_tasks, n_procs, pop, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_tasks, n_procs)
        population = random_population(problem, pop, rng=rng)
        batched = decode_population(population, n_tasks, n_procs)
        per_row = np.vstack(
            [decode_assignment(chrom, n_tasks, n_procs) for chrom in population]
        )
        assert np.array_equal(batched, per_row)

    def test_rejects_wrong_length(self):
        with pytest.raises(Exception):
            decode_population(np.array([[0, 1, 2]]), n_tasks=3, n_processors=3)


class TestBatchedCycleCrossover:
    @given(
        n_tasks=st.integers(min_value=1, max_value=30),
        n_procs=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_reference_operator(self, n_tasks, n_procs, seed):
        rng = np.random.default_rng(seed)
        a, b = random_parent_pair(rng, n_tasks, n_procs)
        expected_a, expected_b = CycleCrossover().cross(a, b)
        got_a, got_b = cycle_crossover_batch(a[None, :], b[None, :])
        assert np.array_equal(got_a[0], expected_a)
        assert np.array_equal(got_b[0], expected_b)

    @given(
        n_tasks=st.integers(min_value=2, max_value=25),
        n_procs=st.integers(min_value=2, max_value=6),
        batch=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_children_preserve_permutation_and_positions(
        self, n_tasks, n_procs, batch, seed
    ):
        rng = np.random.default_rng(seed)
        pairs = [random_parent_pair(rng, n_tasks, n_procs) for _ in range(batch)]
        a = np.vstack([p[0] for p in pairs])
        b = np.vstack([p[1] for p in pairs])
        child_a, child_b = cycle_crossover_batch(a, b)
        for k in range(batch):
            validate_chromosome(child_a[k], n_tasks, n_procs)
            validate_chromosome(child_b[k], n_tasks, n_procs)
            # CX positional invariant: every child gene comes from one of the
            # two parents at the same position, and the children are
            # complementary.
            from_a = child_a[k] == a[k]
            from_b = child_a[k] == b[k]
            assert np.all(from_a | from_b)
            assert np.all(np.where(from_a, child_b[k] == b[k], child_b[k] == a[k]))

    def test_cycle_labels_match_reference_discovery_order(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_parent_pair(rng, 12, 4)
            labels = cycle_labels(a[None, :], b[None, :])[0]
            for rank, cycle in enumerate(find_cycles(a, b)):
                assert np.all(labels[np.asarray(cycle)] == rank)


class TestBatchedSwapMutation:
    @given(
        length=st.integers(min_value=2, max_value=40),
        n_rows=st.integers(min_value=1, max_value=10),
        n_swaps=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_batched_application_equals_sequential(self, length, n_rows, n_swaps, seed):
        rng = np.random.default_rng(seed)
        population = np.vstack([rng.permutation(length) for _ in range(n_rows)])
        i_pos, j_pos = draw_swap_positions(
            np.random.default_rng(seed + 1), n_rows, n_swaps, length
        )
        batched = population.copy()
        swap_positions_batch(batched, np.arange(n_rows), i_pos, j_pos)
        sequential = population.copy()
        for row in range(n_rows):
            apply_position_swaps(sequential[row], i_pos[row], j_pos[row])
        assert np.array_equal(batched, sequential)
        # multiset preserved row-wise
        assert np.array_equal(np.sort(batched, axis=1), np.sort(population, axis=1))

    def test_draw_swap_positions_are_distinct_pairs(self):
        rng = np.random.default_rng(0)
        i_pos, j_pos = draw_swap_positions(rng, 500, 3, 7)
        assert np.all(i_pos != j_pos)
        assert i_pos.min() >= 0 and i_pos.max() < 7
        assert j_pos.min() >= 0 and j_pos.max() < 7

    def test_too_short_chromosome_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_swap_positions(np.random.default_rng(0), 1, 1, 1)


class TestRouletteDrawContract:
    def test_matches_numpy_choice_stream(self):
        """The explicit cdf-searchsorted wheel spins exactly like the
        ``Generator.choice`` call the operator historically made."""
        fitness = np.array([0.5, 1.5, 3.0, 0.25, 2.0])
        probabilities = fitness / fitness.sum()
        expected = np.random.default_rng(17).choice(
            fitness.size, size=64, replace=True, p=probabilities
        )
        got = roulette_select(fitness, 64, rng=17)
        assert np.array_equal(got, expected)


class TestVectorizedRebalance:
    @given(
        n_tasks=st.integers(min_value=2, max_value=30),
        n_procs=st.integers(min_value=1, max_value=8),
        pop=st.integers(min_value=1, max_value=8),
        n_rebalances=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_never_increases_error_and_stays_consistent(
        self, n_tasks, n_procs, pop, n_rebalances, seed
    ):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_tasks, n_procs)
        population = random_population(problem, pop, rng=rng)
        assignments = decode_population(population, n_tasks, n_procs)
        before = evaluate_assignments(assignments, problem)
        completions = before.completions.copy()
        rebalance_population(
            population, assignments, completions, problem, n_rebalances, rng
        )
        after = evaluate_assignments(assignments, problem)
        # error is monotone non-increasing for every individual
        assert np.all(after.errors <= before.errors + 1e-9)
        # the tracked completion times match a full re-evaluation
        assert np.allclose(after.completions, completions, rtol=1e-9, atol=1e-9)
        # chromosomes remain valid permutations consistent with assignments
        for row in range(pop):
            validate_chromosome(population[row], n_tasks, n_procs)
        assert np.array_equal(
            decode_population(population, n_tasks, n_procs), assignments
        )

    def test_statistically_matches_loop_heuristic(self):
        """Aggregate improvement of the vectorized heuristic matches the loop
        implementation: same heuristic, different (but identically
        distributed) draws."""
        master = np.random.default_rng(123)
        gains = {"loop": [], "vectorized": []}
        for trial in range(40):
            seed = int(master.integers(0, 2**31 - 1))
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, 24, 6)
            population = random_population(problem, 10, rng=rng)
            for name in gains:
                backend = GA_KERNELS[name]()
                pop_copy = population.copy()
                assignments = decode_population(pop_copy, 24, 6)
                before = evaluate_assignments(assignments, problem)
                backend.rebalance(
                    pop_copy,
                    assignments,
                    before.completions.copy(),
                    problem,
                    2,
                    np.random.default_rng(seed + 1),
                    5,
                )
                after = evaluate_assignments(assignments, problem)
                gains[name].append(float(np.mean(before.errors - after.errors)))
        loop_mean = np.mean(gains["loop"])
        vec_mean = np.mean(gains["vectorized"])
        assert loop_mean > 0 and vec_mean > 0
        # Both run the same accept-if-better heuristic; their mean error
        # reductions agree within a loose statistical tolerance.
        assert vec_mean == pytest.approx(loop_mean, rel=0.35)


class TestBackendParity:
    @pytest.mark.parametrize("crossover", ["cycle", "pmx", "order"])
    def test_evolve_bit_identical_without_rebalancing(self, crossover):
        rng = np.random.default_rng(2)
        problem = random_problem(rng, 24, 5)
        results = {}
        for backend in BACKENDS:
            config = GAConfig(
                population_size=12,
                max_generations=18,
                n_rebalances=0,
                crossover=crossover,
            )
            engine = GeneticAlgorithm(config, rng=7, kernels=GA_KERNELS[backend]())
            results[backend] = engine.evolve(problem)
        loop, vectorized = results["loop"], results["vectorized"]
        assert np.array_equal(loop.best_assignment, vectorized.best_assignment)
        assert loop.best_makespan == vectorized.best_makespan
        assert loop.makespan_history == vectorized.makespan_history
        assert loop.mean_fitness_history == vectorized.mean_fitness_history
        assert loop.best_queues == vectorized.best_queues

    def test_crossover_stage_bit_identical(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 20, 4)
        parents = random_population(problem, 10, rng=rng)
        results = []
        for backend in BACKENDS:
            work = parents.copy()
            out = GA_KERNELS[backend]().crossover(
                work, CycleCrossover(), 0.8, np.random.default_rng(99)
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])

    @pytest.mark.parametrize("operator", [PartiallyMappedCrossover, OrderCrossover])
    def test_drawing_operators_fall_back_identically(self, operator):
        rng = np.random.default_rng(4)
        problem = random_problem(rng, 15, 4)
        parents = random_population(problem, 8, rng=rng)
        results = []
        for backend in BACKENDS:
            work = parents.copy()
            out = GA_KERNELS[backend]().crossover(
                work, operator(), 0.9, np.random.default_rng(5)
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])

    def test_mutation_stage_bit_identical(self):
        rng = np.random.default_rng(6)
        problem = random_problem(rng, 30, 6)
        population = random_population(problem, 14, rng=rng)
        results = []
        for backend in BACKENDS:
            work = population.copy()
            out = GA_KERNELS[backend]().mutate(
                work, 0.7, 2, np.random.default_rng(21)
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])

    def test_custom_deterministic_operator_uses_its_own_cross(self):
        """The batch cycle-crossover kernel substitutes only for the genuine
        CycleCrossover; a custom operator (even one flagged deterministic)
        must be applied through its own ``cross`` by every backend."""

        class SwapHalvesCrossover(CycleCrossover):
            deterministic_given_draws = True

            def cross(self, parent_a, parent_b, rng=None):
                return parent_b.copy(), parent_a.copy()

        rng = np.random.default_rng(10)
        problem = random_problem(rng, 12, 3)
        parents = random_population(problem, 6, rng=rng)
        results = []
        for backend in BACKENDS:
            work = parents.copy()
            out = GA_KERNELS[backend]().crossover(
                work, SwapHalvesCrossover(), 1.0, np.random.default_rng(33)
            )
            results.append(out.copy())
        assert np.array_equal(results[0], results[1])
        # rate=1.0 crosses every pair, so each pair must be exchanged
        for pair in range(3):
            assert np.array_equal(results[1][2 * pair], parents[2 * pair + 1])
            assert np.array_equal(results[1][2 * pair + 1], parents[2 * pair])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evolve_with_rebalancing_satisfies_ga_invariants(self, backend):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, 25, 5)
        config = GAConfig(population_size=10, max_generations=15, n_rebalances=2)
        result = GeneticAlgorithm(config, rng=11, kernels=GA_KERNELS[backend]()).evolve(problem)
        history = np.asarray(result.makespan_history)
        assert np.all(np.diff(history) <= 1e-9)
        assert result.best_makespan <= result.initial_best_makespan + 1e-9
        recomputed = evaluate_assignments(result.best_assignment, problem)
        assert result.best_makespan == pytest.approx(recomputed.makespans[0])


def assert_labels_match_find_cycles(a, b):
    """Every row's labels number its cycles in find_cycles' discovery order."""
    labels = cycle_labels(a, b)
    assert labels.shape == a.shape
    for row in range(a.shape[0]):
        cycles = find_cycles(a[row], b[row])
        assert labels[row].max() == len(cycles) - 1
        for rank, cycle in enumerate(cycles):
            assert np.all(labels[row, np.asarray(cycle)] == rank)


class TestChromosomeValidity:
    """Chromosome-validity invariants of the flat-index kernels."""

    MALFORMATIONS = (
        "short",
        "long",
        "task_out_of_range",
        "delimiter_out_of_range",
        "duplicate_symbol",
        "delimiter_for_task",
    )

    @given(
        n_tasks=st.integers(min_value=1, max_value=20),
        n_procs=st.integers(min_value=1, max_value=8),
        pop=st.integers(min_value=1, max_value=6),
        kind=st.sampled_from(MALFORMATIONS),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_decode_rejects_every_malformed_row_class(self, n_tasks, n_procs, pop, kind, seed):
        rng = np.random.default_rng(seed)
        population = random_population(random_problem(rng, n_tasks, n_procs), pop, rng=rng)
        length = population.shape[1]
        if kind == "short":
            population = population[:, :-1]
        elif kind == "long":
            population = np.hstack([population, population[:, :1]])
        else:
            row, pos = int(rng.integers(pop)), int(rng.integers(length))
            if kind == "task_out_of_range":
                population[row, pos] = n_tasks + int(rng.integers(0, 3))
            elif kind == "delimiter_out_of_range":
                population[row, pos] = -n_procs - int(rng.integers(0, 3))
            elif kind == "duplicate_symbol":
                if length < 2:
                    return
                other = (pos + 1 + int(rng.integers(length - 1))) % length
                population[row, pos] = population[row, other]
            else:  # a delimiter in place of a task: one processor too many
                task_pos = int(np.flatnonzero(population[row] >= 0)[0])
                population[row, task_pos] = -1
            assert not is_valid_chromosome(population[row], n_tasks, n_procs)
        with pytest.raises(EncodingError):
            decode_population(population, n_tasks, n_procs)

    @given(
        n_tasks=st.integers(min_value=1, max_value=25),
        n_procs=st.integers(min_value=1, max_value=8),
        pairs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_operators_keep_rows_permutations(self, n_tasks, n_procs, pairs, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_tasks, n_procs)
        population = random_population(problem, 2 * pairs, rng=rng)
        backend = VectorizedBackend()

        crossed = backend.crossover(population.copy(), CycleCrossover(), 1.0, rng)
        mutated = backend.mutate(crossed.copy(), 1.0, 3, rng)
        rebalanced = mutated.copy()
        assignments = decode_population(rebalanced, n_tasks, n_procs)
        completions = evaluate_assignments(assignments, problem).completions
        backend.rebalance(rebalanced, assignments, completions, problem, 3, rng, 5)
        for stage in (crossed, mutated, rebalanced):
            for row in stage:
                assert is_valid_chromosome(row, n_tasks, n_procs)
        assert np.array_equal(decode_population(rebalanced, n_tasks, n_procs), assignments)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([0], [0]),  # L = 1
            ([0, 1], [0, 1]),  # L = 2, two fixed points
            ([0, 1], [1, 0]),  # L = 2, one 2-cycle
            ([0, -1], [-1, 0]),  # L = 2 with a delimiter
        ],
    )
    def test_cycle_labels_on_the_shortest_chromosomes(self, a, b):
        assert_labels_match_find_cycles(np.array([a]), np.array([b]))

    @given(
        n_tasks=st.integers(min_value=1, max_value=40),
        n_procs=st.integers(min_value=1, max_value=12),
        pairs=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_flat_cycle_labels_match_find_cycles(self, n_tasks, n_procs, pairs, seed):
        rng = np.random.default_rng(seed)
        rows = [random_parent_pair(rng, n_tasks, n_procs) for _ in range(pairs)]
        a = np.vstack([pair[0] for pair in rows])
        b = np.vstack([pair[1] for pair in rows])
        # Every other pair differs by a few swaps only, so fixed points and
        # short cycles sit next to long ones in the same flat batch.
        for k in range(0, pairs, 2):
            b[k] = a[k]
            apply_position_swaps(b[k], *rng.integers(0, a.shape[1], size=(2, 3)))
        assert_labels_match_find_cycles(a, b)

    def test_symbols_outside_the_chromosome_range_are_rejected(self):
        with pytest.raises(EncodingError):
            cycle_labels(np.array([[0, 1, 5]]), np.array([[5, 1, 0]]))


class AlwaysChangedBackend(VectorizedBackend):
    """Reports every row changed, so the engine re-evaluates every generation."""

    def rebalance(self, population, assignments, completions, *args):
        super().rebalance(population, assignments, completions, *args)
        return np.ones(population.shape[0], dtype=bool)


class CountingBackend(VectorizedBackend):
    """Counts the generations whose rebalance changed no row."""

    unchanged = 0

    def rebalance(self, *args):
        changed = super().rebalance(*args)
        self.unchanged += not changed.any()
        return changed


class TestRebalanceChangedMask:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_rebalances", [1, 3])
    def test_mask_is_the_rows_whose_assignment_changed(self, backend, n_rebalances):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, int(rng.integers(2, 16)), int(rng.integers(1, 7)))
            population = random_population(problem, 10, rng=rng)
            assignments = decode_population(population, problem.n_tasks, problem.n_processors)
            completions = evaluate_assignments(assignments, problem).completions
            before = (population.copy(), assignments.copy(), completions.copy())
            changed = GA_KERNELS[backend]().rebalance(
                population, assignments, completions, problem, n_rebalances, rng, 5
            )
            assert changed.dtype == bool and changed.shape == (10,)
            assert np.array_equal(changed, (assignments != before[1]).any(axis=1))
            # Rows outside the mask are untouched in all three matrices.
            assert np.array_equal(population[~changed], before[0][~changed])
            assert np.array_equal(completions[~changed], before[2][~changed])

    @pytest.mark.parametrize("pending_scale", [50.0, 5000.0])
    def test_skipping_unchanged_reevaluation_is_bit_identical(self, pending_scale):
        rng = np.random.default_rng(3)
        problem = BatchProblem(
            task_ids=np.arange(10),
            sizes=rng.normal(1000.0, 300.0, 10).clip(min=10.0),
            rates=rng.uniform(10.0, 500.0, 50),
            pending_loads=rng.uniform(0.0, pending_scale, 50),
            comm_costs=rng.uniform(0.0, 20.0, 50),
        )
        config = GAConfig(population_size=20, max_generations=60)
        counting = CountingBackend()
        skipping = GeneticAlgorithm(config, rng=5, kernels=counting).evolve(problem)
        always = GeneticAlgorithm(config, rng=5, kernels=AlwaysChangedBackend()).evolve(problem)
        assert counting.unchanged > 0  # the skip was taken
        assert skipping.best_queues == always.best_queues
        assert skipping.makespan_history == always.makespan_history
        assert skipping.mean_fitness_history == always.mean_fitness_history
        assert skipping.best_error == always.best_error
