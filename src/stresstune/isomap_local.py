"""Manifold unrolling with locally completed geodesics.

Classic Isomap completes *all* missing dissimilarities with graph shortest
paths before one global scaling step; here the completion stays inside
h-hop patches that are then stitched rigidly. The connectivity radius of
step one cannot be chosen by the stress sweep (stress is computed against
the radius graph itself), so it defaults to a small multiple of the largest
Euclidean MST edge — the smallest radius that keeps the graph connected.
"""

from __future__ import annotations

from .core import Configuration, DisconnectedGraphError
from .graph import is_connected, min_connectivity_radius, radius_graph
from .stitch import mds_map_p

DEFAULT_RADIUS_MULTIPLE = 1.5


def default_radius(points: Configuration, multiple: float = DEFAULT_RADIUS_MULTIPLE) -> float:
    """Connectivity-threshold radius scaled by a safety multiple (>= 1)."""
    if multiple < 1.0:
        raise ValueError("multiple must be >= 1 or the radius graph disconnects")
    return multiple * min_connectivity_radius(points)


def local_isomap(
    points: Configuration,
    r: float,
    h: int,
    p: int,
    refine_patches: bool = True,
    final_refine: bool = True,
) -> Configuration:
    """Embed ambient points into R^p via a radius graph and patch stitching.

    ``p`` must be smaller than the ambient dimension. Raises when the radius
    graph is disconnected, naming the smallest radius that would connect it.
    """
    if p >= points.p:
        raise ValueError(f"target dimension p={p} must be below the ambient {points.p}")
    g = radius_graph(points, r)
    if not is_connected(g):
        raise DisconnectedGraphError(
            f"radius graph at r={r:g} is disconnected; the smallest connecting "
            f"radius is {min_connectivity_radius(points):g}"
        )
    return mds_map_p(g, h, p, refine_patches=refine_patches, final_refine=final_refine)
