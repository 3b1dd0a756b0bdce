"""Distance-graph embedding with patch stitching and stress-guided tuning.

The package reconstructs point configurations from sparse, noisy pairwise
distances. It stitches locally embedded hop neighborhoods into a global map,
refines with majorization, and selects the neighborhood size by the stress of
the result against the observed distances -- no ground truth required.
"""

from .align import (
    AlignmentReport,
    aligned_error,
    alignment_report,
    diameter,
    procrustes,
    scale_ratio,
)
from .core import (
    Configuration,
    DegenerateGeometryError,
    DenseSymmetricMatrix,
    DisconnectedGraphError,
    EigenSolverError,
    RigidMap,
    StressTuneError,
    affine_rank,
    read_configuration_csv,
    write_configuration_csv,
)
from .data import (
    EARTH_RADIUS_KM,
    CityTable,
    DomainShape,
    add_gaussian_noise,
    apply_multiplicative_noise,
    generate_shape,
    haversine_matrix,
    lift_s_surface,
    lift_swiss_roll,
    load_cities,
    rescale_to_unit,
)
from .embed import (
    classical_scaling,
    mds_d,
    smacof_refine,
    strain,
    trilaterate,
)
from .graph import (
    DissimilarityGraph,
    all_pairs_shortest_paths,
    connected_components,
    hop_balls,
    is_connected,
    knn_graph,
    knn_graph_from_matrix,
    min_connectivity_radius,
    radius_graph,
    read_edge_csv,
    write_edge_csv,
)
from .isomap_local import default_radius, local_isomap
from .rigidity import (
    TrilaterativeOrdering,
    find_trilaterative_ordering,
    sequential_trilateration,
    verify_trilaterative_ordering,
)
from .stitch import (
    GlobalMap,
    MergeError,
    PatchError,
    merge,
    mds_map_p,
)
from .tune import (
    SweepReport,
    SweepRow,
    complete_noiseless_stress,
    noiseless_stress,
    stress,
    sweep_hops,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "CityTable",
    "Configuration",
    "DegenerateGeometryError",
    "DenseSymmetricMatrix",
    "DisconnectedGraphError",
    "DissimilarityGraph",
    "DomainShape",
    "EARTH_RADIUS_KM",
    "EigenSolverError",
    "GlobalMap",
    "MergeError",
    "PatchError",
    "RigidMap",
    "StressTuneError",
    "SweepReport",
    "SweepRow",
    "TrilaterativeOrdering",
    "add_gaussian_noise",
    "affine_rank",
    "aligned_error",
    "alignment_report",
    "all_pairs_shortest_paths",
    "apply_multiplicative_noise",
    "classical_scaling",
    "complete_noiseless_stress",
    "connected_components",
    "default_radius",
    "diameter",
    "find_trilaterative_ordering",
    "generate_shape",
    "haversine_matrix",
    "hop_balls",
    "is_connected",
    "knn_graph",
    "knn_graph_from_matrix",
    "lift_s_surface",
    "lift_swiss_roll",
    "load_cities",
    "local_isomap",
    "mds_d",
    "mds_map_p",
    "merge",
    "min_connectivity_radius",
    "noiseless_stress",
    "procrustes",
    "radius_graph",
    "read_configuration_csv",
    "read_edge_csv",
    "rescale_to_unit",
    "scale_ratio",
    "sequential_trilateration",
    "smacof_refine",
    "strain",
    "stress",
    "sweep_hops",
    "trilaterate",
    "verify_trilaterative_ordering",
    "write_configuration_csv",
    "write_edge_csv",
]
