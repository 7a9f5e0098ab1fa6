"""Equivariant cohomology of GKM cell complexes from decorated graphs."""

from .polyring import (
    Polynomial,
    Weight,
    divide_by_weight,
    pairwise_coprime,
    parse_polynomial,
    solve_congruences,
)
from .graph import CohClass, Edge, GkmGraph, Vertex, is_gkm_class, validate
from .coxeter import GCM, CosetRep, Root, reflect
from .builders import (
    build_chain_graph,
    build_flag_graph,
    build_preset,
    moment_embedding,
)
from .solver import GeneratorBasis, canonical_generators, expand_in_basis, verify_generator_conditions
from .ring_ops import ordinary_reduction, poincare_series, power_coefficient
from .oracle import brute_force_classes, divided_difference_schubert, s2n_relative_image

__version__ = "0.1.0"
