"""Genetic-algorithm machinery: encoding, fitness, operators and the engine."""

from .crossover import (
    CrossoverOperator,
    CycleCrossover,
    OrderCrossover,
    PartiallyMappedCrossover,
    crossover_from_name,
    find_cycles,
)
from .encoding import (
    chromosome_from_queues,
    chromosome_length,
    decode_assignment,
    decode_queues,
    delimiter_symbols,
    random_chromosome,
    validate_chromosome,
)
from .engine import GAConfig, GAResult, GAStopReason, GeneticAlgorithm
from .kernels import (
    KernelBackend,
    VectorizedBackend,
    cycle_crossover_batch,
    decode_population,
    draw_swap_positions,
    rebalance_population,
    swap_positions_batch,
)
from .fitness import (
    FitnessResult,
    completion_times,
    evaluate_assignments,
)
from .population import (
    list_scheduled_assignment,
    random_population,
    seeded_individual,
    seeded_population,
)
from .problem import BatchProblem
from .selection import (
    RankSelection,
    RouletteWheelSelection,
    SelectionOperator,
    TournamentSelection,
    roulette_probabilities,
    roulette_select,
    selection_from_name,
)

__all__ = [
    "BatchProblem",
    # encoding
    "chromosome_length",
    "delimiter_symbols",
    "random_chromosome",
    "chromosome_from_queues",
    "decode_queues",
    "decode_assignment",
    "validate_chromosome",
    # fitness
    "FitnessResult",
    "completion_times",
    "evaluate_assignments",
    # selection
    "SelectionOperator",
    "RouletteWheelSelection",
    "TournamentSelection",
    "RankSelection",
    "selection_from_name",
    "roulette_probabilities",
    "roulette_select",
    # crossover
    "CrossoverOperator",
    "CycleCrossover",
    "PartiallyMappedCrossover",
    "OrderCrossover",
    "crossover_from_name",
    "find_cycles",
    # kernels
    "KernelBackend",
    "VectorizedBackend",
    "cycle_crossover_batch",
    "decode_population",
    "draw_swap_positions",
    "swap_positions_batch",
    "rebalance_population",
    # population
    "list_scheduled_assignment",
    "seeded_individual",
    "seeded_population",
    "random_population",
    # engine
    "GAConfig",
    "GAResult",
    "GAStopReason",
    "GeneticAlgorithm",
]
