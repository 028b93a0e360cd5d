"""The paper's five rows, the two geometric thresholds and the default depth.

The thresholds are fixed constants, not options.  The modules that use them
read them through this module at call time (``config.EPS_PT``), never as a
default argument, so a test may raise them for one fresh interpreter.

All verified quantities are integer counts obtained by thresholding
well-separated reals, so the thresholds only need to sit between the
numerical noise floor (~1e-12 at the depths used) and the true geometric
gaps (>1e-3 in every case handled here).

``EPS_PT`` is the coincidence scale, read by:
  * ``hyp2.geodesic_through``: coincident points;
  * ``hyp2.geodesic_crossing``: equal geodesics (ends on the circle);
  * ``hyp2.is_identity``: at 100x;
  * ``trigroup._disc_candidates``: the cell centre itself, skipped among
    the neighbour candidates, and the generators that fix it, skipped for
    the candidates' reach;
  * ``trigroup.adjacency_isometries``: a coset element off the neighbour
    centre, at 10x;
  * ``report.VerificationReport.as_dict``: printed as ``eps_pt``.
``EPS_BAND`` is the band around degenerate values, read by:
  * ``hyp2.classify``: the trace trichotomy around |tr| = 2;
  * ``trigroup._coset_repeat``: the adjacency coset's repeat check, each
    matrix against the earlier ones, with a guard band at 10x;
  * ``report.VerificationReport.as_dict``: printed as ``eps_band``.
No matrix product reads either, since ``hyp2``'s kernels choose no sign,
and no word ball is deduped by them: ``trigroup._tiles`` dedups tile points
at a fixed 1e-9.  ``tests/test_thresholds.py`` pins this list of readers.
"""

EPS_PT = 1e-9
EPS_BAND = 1e-7

# The default of ``verify --depth``, which the report records as
# ``adjacency_depth`` and no check reads.
DEFAULT_DEPTH = 12

# One record per row of the paper's theorem: the case, its triangle triple
# (p, q, r), the periodic orbit of the torus map that the section's boundary
# runs along, the a of the filling slope 1/a, then the section curve as its
# words and the cone vertex at the centre of its distinguished tile.  A word
# is a hyperbolic product of the rotations P, Q, R about the vertices of
# ``trigroup``'s triangle (lowercase the inverse), and its axis, run from
# the repelling end, is one branch of the curve.  ``trigroup.CASES``,
# ``CASE_TRIPLES`` and ``curve_system``, ``surgery.THEOREM_ROWS`` and the
# report's per-case triple, orbit and slope are read from it.
PAPER_ROWS = (
    (237, (2, 3, 7), "gamma1", 1, ("RQp",), "R"),
    (245, (2, 4, 5), "gamma1", 2, ("qR",), "R"),
    (246, (2, 4, 6), "gamma2", 1, ("RRq",), "Q"),
    (334, (3, 3, 4), "gamma1", 3, ("Pq", "Rp"), "R"),
    (344, (3, 4, 4), "gamma2", 2, ("Qr", "rQ"), "P"),
)
