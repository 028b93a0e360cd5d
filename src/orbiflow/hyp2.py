"""Hyperbolic plane geometry: points, geodesics, isometries, classification.

Model conventions
-----------------
The model is the Poincare disc.  A point is a complex number w of the open
unit disc, and a geodesic is its two ends u -> v, complex numbers of the
unit circle; there is no point at infinity.  Orientation-preserving
isometries are the matrices (alpha beta; conj(beta) conj(alpha)) of SU(1,1),
|alpha|² - |beta|² = 1 (Beardon, *The Geometry of Discrete Groups*), kept
as their entries (alpha, beta).  One kernel, ``mobius``, moves points
and ends alike: w -> (alpha·w + beta)/(conj(beta)·w + conj(alpha)).
Products choose no sign: every formula of the action reads M and -M alike
(IEEE negation is exact), and equality is decided up to sign
(``projective_dist``).

A geodesic is read two ways.  The chord from u to v in the Klein disc
(``Geodesic.klein_line``), where a point w sits at 2w/(1 + |w|²)
(``to_klein``), gives the geodesic through two points (``geodesic_through``)
and decides a crossing and its angle (``geodesic_crossing``).  The ends
themselves give equality (``same_geodesic``) and the arclength coordinate
along a geodesic, log(|w - u|/|w - v|) (``axis_parameter``), with its
inverse (``foot_on_axis``) and the coordinate of a crossing, the mean of
the coordinates of the other geodesic's ends.

Where precision runs out: at distance d from 0, 1 - |w| is about 2e^-d, so
one unit in the last place of w is a hyperbolic step of about 5e-17·e^d,
and the coordinate, which reads w and the ends with no other loss, is off
by about 1e-16·e^d: against 60-digit references, within 3e-12, 2.5e-10 and
1.1e-8 at |t| = 10, 14 and 18, and a crossing's within 1e-14 at 6, 10 and
14 from 0.  The Klein points, and the crossing decision and angle, lose
like 1e-16·e^(2d), since 1 - |k| is about 2e^(-2d).  The points and
crossings that verify and the depth-6 tilings of the five cases read lie
within d = 2.64.  Beyond about 38 the disc point rounds onto the circle,
where ``distance`` raises GeometryError.

Angle conventions: rotations are counterclockwise for positive angle, and
``rotation_about(p, theta)`` rotates tangent vectors at p by theta; about 0
its entries are (e^(i·theta/2), 0), with trace 2·cos(theta/2).
"""
from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Optional

from . import ChainError, Value, config


class GeometryError(ChainError, ValueError):
    """Raised on degenerate or out-of-domain geometric input."""
    kind = "geometry (trigroup)"


Entries = tuple[complex, complex]


def compose_entries(e1: Entries, e2: Entries) -> Entries:
    """Product of two matrices given by their entries (alpha, beta)
    (``Isometry.entries()``); the one product kernel, ``Isometry.compose``
    included, so loops over many products need build no Isometry."""
    a1, b1 = e1
    a2, b2 = e2
    return (a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())


class Isometry(Value):
    """SU(1,1) matrix (alpha beta; conj(beta) conj(alpha)),
    |alpha|² - |beta|² = 1, or its negative."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: complex, beta: complex):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0 + 0.0j, 0.0j)

    def trace(self) -> float:
        return 2.0 * self.alpha.real

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(*compose_entries(self.entries(), other.entries()))

    def inverse(self) -> "Isometry":
        return Isometry(*inverse_entries(self.entries()))

    def entries(self) -> Entries:
        return (self.alpha, self.beta)


def inverse_entries(e: Entries) -> Entries:
    """Inverse of an SU(1,1) matrix given by its entries: (conj(alpha), -beta)."""
    alpha, beta = e
    return (alpha.conjugate(), -beta)


def projective_dist(e1: Entries, e2: Entries) -> float:
    """Largest entry modulus of the difference of two projective matrices,
    given by their entries (``Isometry.entries()``); M and -M are at
    distance 0."""
    a1, b1 = e1
    a2, b2 = e2
    d_plus = max(abs(a1 - a2), abs(b1 - b2))
    d_minus = max(abs(a1 + a2), abs(b1 + b2))
    return min(d_plus, d_minus)


class IsometryKind(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class IsometryClass(Value):
    __slots__ = ("kind", "translation_length")

    def __init__(self, kind: IsometryKind,
                 translation_length: Optional[float] = None):  # hyperbolic only
        Value.__init__(self, kind, translation_length)


class Geodesic(Value):
    """Oriented complete geodesic from the end u to the end v, complex points
    of the unit circle."""

    __slots__ = ("u", "v", "__dict__")  # the dict holds the cached property

    def __init__(self, u: complex, v: complex):
        if u == v:
            raise GeometryError("geodesic needs distinct ideal endpoints")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @cached_property
    def klein_line(self) -> tuple[float, float, float, float]:
        """(nx, ny, c, |n|): the line n·k = c of the chord from u to v, which
        is this geodesic in the Klein disc, computed on first use and kept."""
        u, v = self.u, self.v
        nx, ny = v.imag - u.imag, u.real - v.real
        return nx, ny, nx * u.real + ny * u.imag, math.hypot(nx, ny)


def mobius(e: Entries, w: complex) -> complex:
    """Image of the point or end w under the matrix with entries e:
    (alpha·w + beta)/(conj(beta)·w + conj(alpha))."""
    alpha, beta = e
    return (alpha * w + beta) / (beta.conjugate() * w + alpha.conjugate())


def apply(g: Isometry, w: complex) -> complex:
    return mobius(g.entries(), w)


def distance(p: complex, q: complex) -> float:
    """2·asinh(|p - q| / sqrt((1 - |p|²)(1 - |q|²))): sinh(d/2) is that
    ratio.  Unlike acosh of 1 + 2·ratio², which reads 0 for offsets up to
    about 1e-8, it keeps the relative precision of the offset.  A point so
    far out (d of about 39 from 0) that 1 - |w|² rounds to 0 raises
    GeometryError."""
    sp = 1.0 - (p.real * p.real + p.imag * p.imag)
    sq = 1.0 - (q.real * q.real + q.imag * q.imag)
    if not (sp > 0.0 and sq > 0.0):
        raise GeometryError(f"the point {p if not sp > 0.0 else q} rounds "
                            "onto the unit circle")
    return 2.0 * math.asinh(abs(p - q) / math.sqrt(sp * sq))


def rotation_about(p: complex, theta: float) -> Isometry:
    """Elliptic isometry fixing p, rotating tangent vectors by theta (ccw):
    the rotation (e, 0), e = e^(i·theta/2), about 0 conjugated by the
    transport (1, p)/sqrt(1 - |p|²), w -> (w + p)/(conj(p)·w + 1), that
    takes 0 to p.  Multiplied out, alpha = (e - |p|²·conj(e))/(1 - |p|²)
    and beta = p·(conj(e) - e)/(1 - |p|²)."""
    e = complex(math.cos(theta / 2.0), math.sin(theta / 2.0))
    n = p.real * p.real + p.imag * p.imag
    s = 1.0 - n
    return Isometry((e - n * e.conjugate()) / s,
                    p * (e.conjugate() - e) / s)


def is_identity(g: Isometry) -> bool:
    """Projective identity test (matrix ~ +-Id), at 100 * EPS_PT."""
    return projective_dist(g.entries(), (1.0, 0.0)) < 100 * config.EPS_PT


def classify(g: Isometry) -> IsometryClass:
    if is_identity(g):
        return IsometryClass(IsometryKind.IDENTITY)
    t, band = abs(g.trace()), config.EPS_BAND
    if t > 2.0 + band:
        return IsometryClass(IsometryKind.HYPERBOLIC,
                             translation_length=2.0 * math.acosh(t / 2.0))
    if t < 2.0 - band:
        return IsometryClass(IsometryKind.ELLIPTIC)
    return IsometryClass(IsometryKind.PARABOLIC)


def axis_of(g: Isometry) -> Geodesic:
    """Oriented axis of a hyperbolic isometry, repelling -> attracting.

    With the entries (alpha, beta), the fixed points of the action are
    w = (±r + i·Im alpha)/conj(beta), where r = sqrt((Re alpha)² - 1), and
    the derivative there is 1/(Re alpha ± r)²: the end whose ±r has the
    sign of Re alpha attracts.  beta is not 0, since
    |beta|² = |alpha|² - 1 >= (Re alpha)² - 1 > 0."""
    cls = classify(g)
    if cls.kind is not IsometryKind.HYPERBOLIC:
        raise GeometryError(f"axis requested for {cls.kind.value} isometry")
    alpha, beta = g.entries()
    s = math.copysign(math.sqrt(alpha.real * alpha.real - 1.0), alpha.real)
    den = beta.conjugate()
    return Geodesic(complex(-s, alpha.imag) / den,
                    complex(s, alpha.imag) / den)


def side_length_from_angles(alpha: float, beta: float, gamma: float) -> float:
    """Length of the side joining the alpha- and beta-vertices.

    Dual hyperbolic law of cosines: cosh c = (cos gamma + cos alpha cos beta)
    / (sin alpha sin beta), gamma being the opposite angle.
    """
    num = math.cos(gamma) + math.cos(alpha) * math.cos(beta)
    den = math.sin(alpha) * math.sin(beta)
    return math.acosh(num / den)


def triangle_from_angles(p: int, q: int, r: int) -> tuple[complex, complex, complex]:
    """Canonical triangle with angles pi/p, pi/q, pi/r.

    Pose: P = 0, Q straight down from P, at -i·tanh(d(P, Q)/2), and R at
    angle +pi/p counterclockwise from the PQ direction, at
    -i·e^(i·pi/p)·tanh(d(P, R)/2), so (P, Q, R) is positively oriented.
    Rejects non-hyperbolic parameter triples.
    """
    if p * q + q * r + r * p >= p * q * r:  # 1/p + 1/q + 1/r >= 1
        raise GeometryError(f"({p},{q},{r}) is not a hyperbolic triple")
    ap, aq, ar = math.pi / p, math.pi / q, math.pi / r
    t_pq = math.tanh(side_length_from_angles(ap, aq, ar) / 2.0)
    t_pr = math.tanh(side_length_from_angles(ap, ar, aq) / 2.0)
    return (0.0j, complex(0.0, -t_pq),
            complex(t_pr * math.sin(ap), -t_pr * math.cos(ap)))


# --- Klein coordinates, and the geodesic operations on chords ---

def to_klein(w: complex) -> complex:
    """Klein point 2w/(1 + |w|²) of the disc point w."""
    return 2.0 / (1.0 + w.real * w.real + w.imag * w.imag) * w


def from_klein(k: complex) -> complex:
    """Disc point k/(1 + sqrt(1 - |k|²)) of the Klein point k, the inverse
    of ``to_klein``."""
    n = k.real * k.real + k.imag * k.imag
    if n >= 1.0:
        raise GeometryError("Klein point outside the disc")
    return 1.0 / (1.0 + math.sqrt(1.0 - n)) * k


def geodesic_through(p: complex, q: complex) -> Geodesic:
    """Oriented geodesic through p then q: its ends are the points
    kp + s·(kq - kp) of the Klein line through their Klein points with
    |kp + s·(kq - kp)| = 1, u at the root s < 0 and v at the root s > 1."""
    if distance(p, q) < config.EPS_PT:
        raise GeometryError("geodesic through coincident points")
    kp, kq = to_klein(p), to_klein(q)
    px, py, dx, dy = kp.real, kp.imag, kq.real - kp.real, kq.imag - kp.imag
    # a·s² + 2b·s + c = 0, with c < 0 since p lies inside the circle.
    a, b, c = dx * dx + dy * dy, px * dx + py * dy, px * px + py * py - 1.0
    root = math.sqrt(b * b - a * c)
    lo, hi = (-b - root) / a, (-b + root) / a
    return Geodesic(complex(px + lo * dx, py + lo * dy),
                    complex(px + hi * dx, py + hi * dy))


def _near(p: complex, q: complex, eps: float) -> bool:
    return abs(p.real - q.real) < eps and abs(p.imag - q.imag) < eps


def same_geodesic(g1: Geodesic, g2: Geodesic, eps: float) -> bool:
    """Unordered coincidence of two geodesics: their ends on the unit
    circle lie within eps in Chebyshev distance, in either order."""
    a1, b1, a2, b2 = g1.u, g1.v, g2.u, g2.v
    return ((_near(a1, a2, eps) and _near(b1, b2, eps))
            or (_near(a1, b2, eps) and _near(b1, a2, eps)))


def geodesic_crossing(g: Geodesic, h: Geodesic
                      ) -> Optional[tuple[float, float]]:
    """Axis parameter on g of the transverse crossing of g and h, and their
    unoriented angle in [0, pi/2], or None if they are disjoint or equal.

    Decided on the Klein chords n·k = c (``klein_line``), by their
    spacelike normals m = (n, c) in the hyperboloid model, with
    B(m1, m2) = n1·n2 - c1·c2 (Ratcliffe, *Foundations of Hyperbolic
    Manifolds*, ch. 3): the chords cross inside the disc iff
    B(m1, m2)² < B(m1, m1)·B(m2, m2), and then cos of the angle is
    |B(m1, m2)| / sqrt(B(m1, m1)·B(m2, m2)).  For the chord from u to v,
    |n| = |u - v| and c = Im(conj(u)·v), so B(m, m) = |u - v|⁴/4, read from
    |n| without the cancellation of |n|² - c² for close ends.  The half-turn
    about the crossing keeps g, reflecting its parameter about the
    crossing's, and swaps h's ends, so the crossing's parameter is the mean
    of those of h's ends.
    """
    n1x, n1y, c1, norm1 = g.klein_line
    n2x, n2y, c2, norm2 = h.klein_line
    b12 = n1x * n2x + n1y * n2y - c1 * c2
    b11b22 = (norm1 * norm2) ** 4 / 16.0
    if not b12 * b12 < b11b22 or same_geodesic(g, h, config.EPS_PT):
        return None
    return (0.5 * (axis_parameter(g, h.u) + axis_parameter(g, h.v)),
            math.acos(min(1.0, abs(b12) / math.sqrt(b11b22))))


def axis_parameter(g: Geodesic, w: complex) -> float:
    """Signed arclength coordinate along g of the foot of the point or end
    w, log(|w - u|/|w - v|): increasing toward v, 0 at g's point nearest 0.

    Its level sets, the circles of Apollonius of u and v, are the geodesics
    perpendicular to g (Beardon, *The Geometry of Discrete Groups*, §7);
    on g, a Möbius map sending u to 0 and v to infinity makes the ratio
    e^t times a constant, 1 where w is as far from u as from v.  A w that
    rounds onto an end raises GeometryError."""
    a, b = abs(w - g.u), abs(w - g.v)
    if not (a > 0.0 and b > 0.0):
        raise GeometryError(f"the point {w} rounds onto an end of a geodesic")
    return math.log(a / b)


def foot_on_axis(g: Geodesic, t: float) -> complex:
    """Point of g at axis parameter t (inverse of axis_parameter): the
    point d·tanh(t/2), d the end v moved by the transport of g's point m
    nearest 0 to 0 (and put back on the circle, off which v's rounding
    moves it), moved back.  m = (u + v)/(2 + |u - v|) is the disc point of
    the chord's midpoint k, read without the cancellation of 1 - |k|²."""
    m = (g.u + g.v) / (2.0 + abs(g.u - g.v))
    d = mobius((1.0, -m), g.v)
    return mobius((1.0, m), d / abs(d) * math.tanh(0.5 * t))
