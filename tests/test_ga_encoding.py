"""Tests for the chromosome encoding (Fig. 2 of the paper)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import (
    chromosome_from_queues,
    chromosome_length,
    decode_assignment,
    decode_queues,
    delimiter_symbols,
    random_chromosome,
    validate_chromosome,
)
from repro.util.errors import EncodingError


class TestBasics:
    def test_chromosome_length_formula(self):
        assert chromosome_length(10, 4) == 13  # H + M - 1
        assert chromosome_length(0, 1) == 0

    def test_chromosome_length_invalid(self):
        with pytest.raises(EncodingError):
            chromosome_length(-1, 2)
        with pytest.raises(EncodingError):
            chromosome_length(5, 0)

    def test_delimiter_symbols_distinct_negative(self):
        delims = delimiter_symbols(5)
        assert delims.tolist() == [-1, -2, -3, -4]
        assert len(set(delims.tolist())) == 4

    def test_single_processor_has_no_delimiters(self):
        assert delimiter_symbols(1).size == 0


class TestRandomChromosome:
    def test_valid_permutation(self):
        chrom = random_chromosome(8, 3, rng=0)
        validate_chromosome(chrom, 8, 3)

    def test_deterministic_with_seed(self):
        assert np.array_equal(random_chromosome(8, 3, rng=5), random_chromosome(8, 3, rng=5))

    def test_zero_tasks(self):
        chrom = random_chromosome(0, 3, rng=0)
        assert chrom.shape == (2,)
        assert np.all(chrom < 0)


class TestQueuesRoundTrip:
    def test_encode_decode_round_trip(self):
        queues = [[2, 0], [1], [], [3, 4]]
        chrom = chromosome_from_queues(queues, n_tasks=5)
        assert decode_queues(chrom, 4) == queues

    def test_encoded_structure_matches_paper_layout(self):
        chrom = chromosome_from_queues([[0, 1], [2]], n_tasks=3)
        # tasks of queue 0, then a delimiter, then tasks of queue 1
        assert chrom.tolist() == [0, 1, -1, 2]

    def test_missing_task_rejected(self):
        with pytest.raises(EncodingError):
            chromosome_from_queues([[0], [2]], n_tasks=3)

    def test_duplicate_task_rejected(self):
        with pytest.raises(EncodingError):
            chromosome_from_queues([[0, 1], [1]], n_tasks=2)

    def test_empty_queue_list_rejected(self):
        with pytest.raises(EncodingError):
            chromosome_from_queues([], n_tasks=0)


class TestDecodeAssignment:
    def test_assignment_matches_queues(self):
        chrom = chromosome_from_queues([[2, 0], [1], [3]], n_tasks=4)
        assignment = decode_assignment(chrom, 4, 3)
        assert assignment.tolist() == [0, 1, 0, 2]

    def test_all_tasks_on_last_processor(self):
        chrom = chromosome_from_queues([[], [], [0, 1, 2]], n_tasks=3)
        assert decode_assignment(chrom, 3, 3).tolist() == [2, 2, 2]

    def test_unknown_task_index_rejected(self):
        chrom = np.array([0, 5, -1])  # task index 5 does not exist for H=2
        with pytest.raises(EncodingError):
            decode_assignment(chrom, 2, 2)


class TestValidateChromosome:
    def test_accepts_valid(self):
        validate_chromosome(np.array([1, -1, 0, 2]), 3, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(EncodingError):
            validate_chromosome(np.array([0, 1]), 3, 2)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(EncodingError):
            validate_chromosome(np.array([0, 0, -1, 2]), 3, 2)

    def test_wrong_delimiters_rejected(self):
        with pytest.raises(EncodingError):
            validate_chromosome(np.array([0, 1, 2, -7]), 3, 2)


class TestEncodingProperties:
    @given(
        n_tasks=st.integers(min_value=1, max_value=40),
        n_processors=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_chromosome_round_trips(self, n_tasks, n_processors, seed):
        """Property: decode(encode(x)) preserves the schedule for random chromosomes."""
        chrom = random_chromosome(n_tasks, n_processors, rng=seed)
        validate_chromosome(chrom, n_tasks, n_processors)
        queues = decode_queues(chrom, n_processors)
        # every task appears exactly once across the queues
        flat = sorted(t for q in queues for t in q)
        assert flat == list(range(n_tasks))
        # re-encoding then decoding the assignment is consistent
        rebuilt = chromosome_from_queues(queues, n_tasks)
        assert decode_queues(rebuilt, n_processors) == queues
        assignment = decode_assignment(chrom, n_tasks, n_processors)
        assert all(assignment[t] == p for p, q in enumerate(queues) for t in q)

    @given(
        n_tasks=st.integers(min_value=1, max_value=30),
        n_processors=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignment_consistent_with_queues(self, n_tasks, n_processors, seed):
        """Property: decode_assignment and decode_queues agree on every task's processor."""
        chrom = random_chromosome(n_tasks, n_processors, rng=seed)
        queues = decode_queues(chrom, n_processors)
        assignment = decode_assignment(chrom, n_tasks, n_processors)
        for proc, queue in enumerate(queues):
            for task_index in queue:
                assert assignment[task_index] == proc
