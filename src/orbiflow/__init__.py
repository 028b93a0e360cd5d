"""Certified combinatorics of genus-1 surface sections over hyperbolic
triangle orbifolds, and the matching Dehn-surgery homology checks."""

__version__ = "0.1.0"
