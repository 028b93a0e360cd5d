"""Tolerances and search depth, overridable via environment or CLI flags.

Precedence: explicit arguments > ORBIFLOW_* environment variables > defaults.
"""
from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Floating-point thresholds used by the geometric modules.

    All verified quantities are integer counts obtained by thresholding
    well-separated reals, so these only need to sit between the numerical
    noise floor (~1e-12 at the depths used) and the true geometric gaps
    (>1e-3 in every case handled here).

    ``eps_pt`` is the coincidence scale, read by:
      * ``hyp2.geodesic_through`` and ``angle_at``: coincident points and
        vertical geodesics;
      * ``hyp2.geodesic_intersection``: equal geodesics (endpoint angles)
        and concentric circles;
      * ``hyp2.compose_entries``/``inverse_entries``, the kernels of
        ``Isometry.compose``/``inverse``: the first significant entry, made
        positive; ``axis_of``: a vertical axis (|c| below it);
      * ``hyp2.is_identity``: at 100x;
      * ``trigroup.canonical_neighbors``: the base tile itself, skipped;
        ``adjacency_isometries``: a tile image on its target, at 10x.
    ``eps_band`` is the band around degenerate values, read by:
      * ``hyp2.classify``: the trace trichotomy around |tr| = 2;
      * ``hyp2.angle_at``: collinear vertices, angle near 0 or pi;
      * ``trigroup.enumerate_elements``, once per group for its largest
        ball (smaller radii are prefixes of it), and the pair products of
        ``adjacency_isometries``: the matrix dedup radius, with a guard band
        at 10x.
    """

    eps_pt: float = 1e-9
    eps_band: float = 1e-7


@dataclass(frozen=True)
class SearchConfig:
    """Word-ball depth for group enumeration."""

    adjacency_depth: int = 12  # total word length budget for adjacency search


DEFAULT_TOL = Tolerances()
DEFAULT_SEARCH = SearchConfig()

ENV_DEPTH = "ORBIFLOW_DEPTH"
ENV_TOL = "ORBIFLOW_TOL"


def override_tolerance(base: Tolerances, eps: float) -> Tolerances:
    """`base` with the coincidence scale set to eps; the band never drops
    below its value in `base`."""
    if not 0 < eps < 1e-2:
        raise ValueError("tolerance must be in (0, 1e-2)")
    return Tolerances(eps_pt=eps, eps_band=max(eps, base.eps_band))


def override_depth(depth: int) -> SearchConfig:
    """The search with its adjacency depth set to `depth`."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return SearchConfig(adjacency_depth=depth)


def tolerances_from_env() -> Tolerances:
    raw = os.environ.get(ENV_TOL)
    return DEFAULT_TOL if raw is None else override_tolerance(DEFAULT_TOL, float(raw))


def search_from_env() -> SearchConfig:
    raw = os.environ.get(ENV_DEPTH)
    return DEFAULT_SEARCH if raw is None else override_depth(int(raw))
