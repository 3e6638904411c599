from .graphs import SseGraph, expansion, generate_sse, noisy_walk, walk_matrix
from .params import DerivedSchedule, ReductionParams, derive_params
from .sampler import TestSample, sample_test_tuple
from .dictator import LongCodeAssignment, dictator_assignment
from .analysis import (
    acceptance_estimate,
    acceptance_exact,
    averaged_function,
    decoupling_check,
    influence_decode_stat,
    mixing_check,
)

__all__ = [
    "SseGraph",
    "expansion",
    "generate_sse",
    "noisy_walk",
    "walk_matrix",
    "DerivedSchedule",
    "ReductionParams",
    "derive_params",
    "TestSample",
    "sample_test_tuple",
    "LongCodeAssignment",
    "dictator_assignment",
    "acceptance_estimate",
    "acceptance_exact",
    "averaged_function",
    "decoupling_check",
    "influence_decode_stat",
    "mixing_check",
]
