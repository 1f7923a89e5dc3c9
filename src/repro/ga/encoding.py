"""Chromosome encoding of a batch schedule (Fig. 2 of the paper).

A schedule for a batch of ``H`` tasks on ``M`` processors is encoded as a
string of ``H + M - 1`` symbols: the ``H`` task symbols plus ``M - 1``
delimiters separating consecutive processor queues.  The paper uses the task
identification numbers and a single ``-1`` delimiter symbol; internally we
use the *batch-local task indices* ``0 .. H-1`` and *distinct* delimiter
symbols ``-1, -2, ..., -(M-1)`` so that every chromosome is a true
permutation of a fixed symbol set.  Distinct delimiters are required for the
cycle-crossover operator (which is only defined for permutations of distinct
symbols) and are semantically identical to the paper's encoding: any negative
symbol marks a queue boundary.

The functions here convert between three equivalent representations:

* **chromosome** — ``numpy`` integer array of length ``H + M - 1``;
* **queues** — list of ``M`` lists of task indices (order within a queue is
  the dispatch order);
* **assignment vector** — array of length ``H`` giving each task's processor.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..util.errors import EncodingError
from ..util.rng import RNGLike, ensure_rng

__all__ = [
    "delimiter_symbols",
    "random_chromosome",
    "chromosome_from_queues",
    "decode_queues",
    "decode_assignment",
    "validate_chromosome",
    "chromosome_length",
]


def chromosome_length(n_tasks: int, n_processors: int) -> int:
    """Length of a chromosome for ``H`` tasks and ``M`` processors: ``H + M - 1``."""
    if n_tasks < 0 or n_processors < 1:
        raise EncodingError(
            f"invalid dimensions: n_tasks={n_tasks}, n_processors={n_processors}"
        )
    return n_tasks + n_processors - 1


def delimiter_symbols(n_processors: int) -> np.ndarray:
    """The ``M - 1`` distinct delimiter symbols ``-1, -2, ..., -(M-1)``."""
    if n_processors < 1:
        raise EncodingError(f"n_processors must be >= 1, got {n_processors}")
    return -np.arange(1, n_processors, dtype=int)


def random_chromosome(n_tasks: int, n_processors: int, rng: RNGLike = None) -> np.ndarray:
    """A uniformly random valid chromosome (random queue split and order)."""
    gen = ensure_rng(rng)
    genes = np.concatenate(
        [np.arange(n_tasks, dtype=int), delimiter_symbols(n_processors)]
    )
    gen.shuffle(genes)
    return genes


def chromosome_from_queues(queues: Sequence[Sequence[int]], n_tasks: int) -> np.ndarray:
    """Encode explicit per-processor queues of task indices into a chromosome.

    ``queues`` must contain exactly one (possibly empty) ordered list per
    processor and mention every task index ``0..H-1`` exactly once.
    """
    n_processors = len(queues)
    if n_processors < 1:
        raise EncodingError("at least one processor queue is required")
    genes: List[int] = []
    for proc, queue in enumerate(queues):
        if proc:
            genes.append(-proc)  # the delimiter closing queue proc - 1
        genes.extend(queue)
    chrom = np.array(genes, dtype=int)
    validate_chromosome(chrom, n_tasks, n_processors)
    return chrom


def decode_queues(chromosome: np.ndarray, n_processors: int) -> List[List[int]]:
    """Decode a chromosome into ``M`` ordered per-processor task-index queues."""
    chrom = np.asarray(chromosome, dtype=int)
    queues: List[List[int]] = [[] for _ in range(n_processors)]
    proc = 0
    for gene in chrom:
        if gene < 0:
            proc += 1
            if proc >= n_processors:
                raise EncodingError(
                    f"chromosome contains more than {n_processors - 1} delimiters"
                )
        else:
            queues[proc].append(int(gene))
    return queues


def decode_assignment(chromosome: np.ndarray, n_tasks: int, n_processors: int) -> np.ndarray:
    """Decode a chromosome into an assignment vector ``task index -> processor``."""
    chrom = np.asarray(chromosome, dtype=int)
    assignment = np.full(n_tasks, -1, dtype=int)
    # processor index of each gene = number of delimiters seen before it
    if len(chrom):
        proc_of_gene = np.cumsum(np.concatenate([[0], (chrom[:-1] < 0).astype(int)]))
    else:
        proc_of_gene = np.empty(0, dtype=int)
    task_mask = chrom >= 0
    task_genes = chrom[task_mask]
    if np.any(task_genes >= n_tasks):
        raise EncodingError("chromosome references a task index outside the batch")
    assignment[task_genes] = proc_of_gene[task_mask]
    if np.any(assignment < 0):
        missing = np.nonzero(assignment < 0)[0]
        raise EncodingError(f"chromosome is missing task indices {missing.tolist()}")
    if np.any(assignment >= n_processors):
        raise EncodingError("chromosome assigns tasks beyond the last processor")
    return assignment


def validate_chromosome(chromosome: np.ndarray, n_tasks: int, n_processors: int) -> None:
    """Raise :class:`EncodingError` unless the chromosome is a valid schedule.

    A valid chromosome is a permutation of the task indices ``0..H-1`` plus
    the ``M-1`` distinct delimiter symbols.
    """
    chrom = np.asarray(chromosome, dtype=int)
    expected_length = chromosome_length(n_tasks, n_processors)
    if chrom.ndim != 1 or chrom.shape[0] != expected_length:
        raise EncodingError(
            f"chromosome must have length {expected_length}, got shape {chrom.shape}"
        )
    # Sorted, the symbol set is -(M-1), ..., -1, 0, ..., H-1.
    expected = np.arange(1 - n_processors, n_tasks, dtype=int)
    if not np.array_equal(np.sort(chrom), expected):
        raise EncodingError(
            "chromosome is not a permutation of the task indices and delimiters"
        )
