"""Tolerances and search depth: the defaults, and the `--tol` override."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Floating-point thresholds used by the geometric modules.

    All verified quantities are integer counts obtained by thresholding
    well-separated reals, so these only need to sit between the numerical
    noise floor (~1e-12 at the depths used) and the true geometric gaps
    (>1e-3 in every case handled here).

    ``eps_pt`` is the coincidence scale, read by:
      * ``hyp2.geodesic_through``: coincident points and vertical
        geodesics;
      * ``hyp2.geodesic_intersection``: equal geodesics (endpoint angles)
        and concentric circles;
      * ``hyp2.compose_entries``/``inverse_entries``, the kernels of
        ``Isometry.compose``/``inverse``: the first significant entry, made
        positive; ``axis_of``: a vertical axis (|c| below it);
      * ``hyp2.is_identity``: at 100x;
      * ``trigroup.canonical_neighbors``: the base tile itself, skipped;
        ``adjacency_isometries``: a coset element off the neighbour centre,
        at 10x.
    ``eps_band`` is the band around degenerate values, read by:
      * ``hyp2.classify``: the trace trichotomy around |tr| = 2;
      * ``trigroup.enumerate_elements``, once per group for its largest
        ball (smaller radii are prefixes of it), and the repeat check of
        ``adjacency_isometries``: the matrix dedup radius, with a guard band
        at 10x.
    """

    eps_pt: float = 1e-9
    eps_band: float = 1e-7


DEFAULT_TOL = Tolerances()
DEFAULT_DEPTH = 12


def override_tolerance(eps: float) -> Tolerances:
    """The default tolerances with the coincidence scale set to eps; the band
    never drops below its default."""
    if not 0 < eps < 1e-2:
        raise ValueError("tolerance must be in (0, 1e-2)")
    return Tolerances(eps_pt=eps, eps_band=max(eps, DEFAULT_TOL.eps_band))
