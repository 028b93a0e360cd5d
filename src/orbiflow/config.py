"""Tolerances and search depths, overridable via environment or CLI flags.

Precedence: explicit arguments > ORBIFLOW_* environment variables > defaults.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """Floating-point thresholds used by the geometric modules.

    All verified quantities are integer counts obtained by thresholding
    well-separated reals, so these only need to sit between the numerical
    noise floor (~1e-12 at the depths used) and the true geometric gaps
    (>1e-3 in every case handled here).
    """

    eps_det: float = 1e-9     # |det - 1| bound for isometry matrices
    eps_pt: float = 1e-9      # point coincidence (also matrix-product checks)
    eps_geo: float = 1e-9     # geodesic endpoint coincidence (disc angles)
    eps_cls: float = 1e-7     # trace trichotomy band around |tr| = 2
    eps_ang: float = 1e-7     # angle comparisons / degeneracy detection
    eps_sign: float = 1e-9    # sign-normalization significance threshold
    eps_dedup: float = 1e-7   # matrix dedup radius (guard band at 10x)


@dataclass(frozen=True)
class SearchConfig:
    """Word-ball depths for group enumeration."""

    adjacency_depth: int = 12  # total word length budget for adjacency search
    tiling_depth: int = 8      # ball radius for tilings and curve-lift orbits


DEFAULT_TOL = Tolerances()
DEFAULT_SEARCH = SearchConfig()

ENV_DEPTH = "ORBIFLOW_DEPTH"
ENV_TOL = "ORBIFLOW_TOL"


def override_tolerance(base: Tolerances, eps: float) -> Tolerances:
    """`base` with every threshold set to eps; the classification, angle and
    dedup bands never drop below their value in `base`."""
    if not 0 < eps < 1e-2:
        raise ValueError("tolerance must be in (0, 1e-2)")
    return Tolerances(
        eps_det=eps, eps_pt=eps, eps_geo=eps,
        eps_cls=max(eps, base.eps_cls), eps_ang=max(eps, base.eps_ang),
        eps_sign=eps, eps_dedup=max(eps, base.eps_dedup),
    )


def override_depth(base: SearchConfig, depth: int) -> SearchConfig:
    """`base` with the adjacency depth set to `depth`, capping the tiling
    depth at it."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return replace(base, adjacency_depth=depth,
                   tiling_depth=min(depth, base.tiling_depth))


def tolerances_from_env(base: Tolerances = DEFAULT_TOL) -> Tolerances:
    raw = os.environ.get(ENV_TOL)
    return base if raw is None else override_tolerance(base, float(raw))


def search_from_env(base: SearchConfig = DEFAULT_SEARCH) -> SearchConfig:
    raw = os.environ.get(ENV_DEPTH)
    return base if raw is None else override_depth(base, int(raw))
