"""Exact invariants and inequality checks for polarized metrized graphs."""

from .scalars import FLOAT, RATIONAL, Scalar, Surd79, format_scalar, parse_scalar
from .graphs import (Edge, GraphError, MetrizedGraph, PMGraph, Structure,
                     one_point_join, pm_graph_from_json, pm_graph_to_json_dict)
from .network import (EdgeCircuitData, Network, edge_circuit_data, network_for,
                      resistance_matrix, resistance_oracle, voltage)
from .invariants import (CrossValidationError, InvariantReport, NotApplicable,
                         genus_identity_residual, a_invariant, epsilon,
                         identity_checks, invariant_report, lambda_invariant,
                         phi, quick_report, tau, theta, xy)
from .families import (FamilySpec, banana, bouquet, circle, complete_equal,
                       family_reference, genus3_beta, genus3_gamma,
                       make_family, necklace)
from .bounds import (BoundCheck, SearchConfig, SearchResult, bound_suite,
                     effective_bogomolov_r0, random_search, t_value,
                     violations)

__all__ = [name for name in dir() if not name.startswith("_")]
