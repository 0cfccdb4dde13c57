"""Approximate counting and Gibbs sampling for q-spin systems on regular
bipartite expanders, via biclique polymer models and polymer dynamics, with
exact brute-force oracles for desk-scale verification."""

from .dynamics import PolymerChain, random_stream, sample_polymer_config
from .estimator import (
    ApproxResult,
    EstimatorConfig,
    MixtureRecord,
    approximate_Z,
    build_mixture,
    estimate_polymer_Z,
    spin_fill,
    spin_sample_many,
)
from .graph import (
    BipartiteRegularGraph,
    SpectralCertificate,
    check_expansion_inequalities,
    complete_bipartite,
    even_cycle,
    generate_random_regular_bipartite,
    load_graph,
    parse_graph,
    save_graph,
    second_eigenvalue,
)
from .polymer import Polymer, PolymerModel, are_compatible
from .spin_model import (
    Biclique,
    InteractionMatrix,
    PremiseReport,
    check_premises,
    enumerate_maximal_bicliques,
    load_matrix,
    normalize_matrix,
    parse_matrix,
    proof_epsilon,
    save_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "Biclique",
    "BipartiteRegularGraph",
    "EstimatorConfig",
    "InteractionMatrix",
    "MixtureRecord",
    "Polymer",
    "PolymerChain",
    "PolymerModel",
    "PremiseReport",
    "SpectralCertificate",
    "approximate_Z",
    "are_compatible",
    "build_mixture",
    "check_expansion_inequalities",
    "check_premises",
    "complete_bipartite",
    "enumerate_maximal_bicliques",
    "estimate_polymer_Z",
    "even_cycle",
    "generate_random_regular_bipartite",
    "load_graph",
    "load_matrix",
    "normalize_matrix",
    "parse_graph",
    "parse_matrix",
    "proof_epsilon",
    "random_stream",
    "sample_polymer_config",
    "save_graph",
    "save_matrix",
    "second_eigenvalue",
    "spin_fill",
    "spin_sample_many",
]
