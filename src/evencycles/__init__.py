"""Certifying toolkit for two cycles of consecutive even lengths."""

from .graphs import (
    Block,
    BlockDecomposition,
    Cycle,
    Graph,
    GraphError,
    InternalInvariantError,
    Path,
    blocks,
    connectivity_cut,
    disjoint_paths,
    fan,
    is_bipartite,
    shortest_odd_cycle,
    theta_even_cycle,
)
from .oracle import (
    CyclePairCertificate,
    GuardExceeded,
    NearLengthPair,
    PathPairCertificate,
    SpectrumReport,
    bondy_vince_search,
    cycle_mod_residue,
    cycle_spectrum,
    find_consecutive_even_pair_bf,
    validate,
    xy_path_lengths,
)
from .finder import (
    HypothesisFailure,
    K5BlockWitness,
    Outcome,
    QuasiDiagonalStructure,
    combine_quasi_diagonal,
    cycle_two_mod_four,
    main_theorem,
    pair_from_shared_vertex,
    quasi_diagonal,
    three_connected_pair,
    two_paths_diff_two,
)
from .generators import (
    GeneratorSpec,
    are_isomorphic,
    enumerate_small,
    gen_k5_block_tree,
    gen_named,
    is_k5_block_tree,
)
from .codecs import (
    decode_edge_list,
    decode_graph6,
    encode_edge_list,
    encode_graph6,
)

__version__ = "0.1.0"
