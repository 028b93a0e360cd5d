"""Hyperbolic plane geometry: points, geodesics, isometries, classification.

Model conventions
-----------------
Points live in the upper half-plane {x + iy : y > 0}.  Orientation-preserving
isometries are real 2x2 matrices of determinant 1 acting by Mobius
transformations z -> (az + b)/(cz + d).  Products choose no sign: every
formula of the action reads M and -M alike (IEEE negation is exact), and
equality is decided up to sign (``projective_dist``).

A geodesic is its two ends u -> v, complex points of the unit circle, the
boundary of the disc onto which the Cayley map z -> (z - i)/(z + i) carries
the half-plane; there is no point at infinity.  A matrix moves the ends by
its disc action (``disc_entries``, ``circle_image``), and every other
geodesic operation reads the chord from u to v in the Klein disc
(``Geodesic.klein_line``): the axis of an isometry, the geodesic through two
points, crossings, and the arclength coordinate along a geodesic, atanh of
the affine coordinate along its chord (``axis_parameter``).  That
coordinate's absolute error grows like 1e-16·e^(2d) at distance d from i;
the points that verify and the depth-6 tilings of the five cases pass in
lie within d = 2.64, where it is about 1e-14.

Angle conventions: rotations are counterclockwise for positive angle, and
``rotation_about(p, theta)`` rotates tangent vectors at p by theta, so its
matrix is conjugate to [[cos(theta/2), sin(theta/2)], [-sin(theta/2),
cos(theta/2)]] with trace 2*cos(theta/2).
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


class HPoint(Value):
    """Point x + iy of the upper half-plane (y > 0)."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        if not y > 0:
            raise GeometryError(f"point ({x}, {y}) not in upper half-plane")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


Entries = tuple[float, float, float, float]


def compose_entries(e1: Entries, e2: Entries) -> Entries:
    """Product of two matrices given by their entry tuples
    (``Isometry.entries()``); the one product kernel, ``Isometry.compose``
    included, so loops over many products need build no Isometry."""
    a1, b1, c1, d1 = e1
    a2, b2, c2, d2 = e2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


class Isometry(Value):
    """SL(2,R) matrix [[a, b], [c, d]], ad - bc = 1, or its negative."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0, 0.0, 0.0, 1.0)

    def trace(self) -> float:
        return self.a + self.d

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(*compose_entries(self.entries(), other.entries()))

    def inverse(self) -> "Isometry":
        return Isometry(*inverse_entries(self.entries()))

    def entries(self) -> Entries:
        return (self.a, self.b, self.c, self.d)


def inverse_entries(e: Entries) -> Entries:
    """Inverse of a matrix of determinant 1 given by its entry tuple."""
    a, b, c, d = e
    return (d, -b, -c, a)


def projective_dist(e1: Entries, e2: Entries) -> float:
    """Chebyshev distance between projective matrices, given by their entry
    tuples (``Isometry.entries()``); M and -M are at distance 0."""
    a1, b1, c1, d1 = e1
    a2, b2, c2, d2 = e2
    d_plus = max(abs(a1 - a2), abs(b1 - b2), abs(c1 - c2), abs(d1 - d2))
    d_minus = max(abs(a1 + a2), abs(b1 + b2), abs(c1 + c2), abs(d1 + d2))
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


def mobius(e: Entries, z: complex) -> complex:
    """Image of z under the matrix with entry tuple e; the kernel of apply."""
    a, b, c, d = e
    return (a * z + b) / (c * z + d)


def apply(g: Isometry, p: HPoint) -> HPoint:
    w = mobius(g.entries(), p.as_complex())
    return HPoint(w.real, w.imag)


def disc_entries(e: Entries) -> tuple[complex, complex]:
    """(alpha, beta) of the matrix with entry tuple e conjugated into the
    disc by the Cayley map: alpha = ((a + d) + i(b - c))/2 and
    beta = ((a - d) - i(b + c))/2 (``circle_image``)."""
    a, b, c, d = e
    return (complex(0.5 * (a + d), 0.5 * (b - c)),
            complex(0.5 * (a - d), -0.5 * (b + c)))


def circle_image(ab: tuple[complex, complex], w: complex) -> complex:
    """Image of the disc point w under the disc entries ab
    (``disc_entries``): (alpha·w + beta)/(conj(beta)·w + conj(alpha))."""
    alpha, beta = ab
    return (alpha * w + beta) / (beta.conjugate() * w + alpha.conjugate())


def apply_geodesic(g: Isometry, geo: Geodesic) -> Geodesic:
    ab = disc_entries(g.entries())
    return Geodesic(circle_image(ab, geo.u), circle_image(ab, geo.v))


def distance(p: HPoint, q: HPoint) -> float:
    """2·asinh(|p - q| / (2·sqrt(Im p · Im q))): sinh(d/2) is that ratio
    (cosh d = 1 + |p - q|²/(2·Im p·Im q) = 1 + 2·sinh²(d/2)).  Unlike
    acosh(1 + ...), which reads 0 for offsets up to about 1.4e-8, it keeps
    the relative precision of the offset."""
    return 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y)
                            / (2.0 * math.sqrt(p.y * q.y)))


def _transport_from_i(p: HPoint) -> Isometry:
    # Maps i to p: [[sqrt(y), x/sqrt(y)], [0, 1/sqrt(y)]].
    s = math.sqrt(p.y)
    return Isometry(s, p.x / s, 0.0, 1.0 / s)


def rotation_about(p: HPoint, theta: float) -> Isometry:
    """Elliptic isometry fixing p, rotating tangent vectors by theta (ccw)."""
    h = theta / 2.0
    rot = Isometry(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))
    t = _transport_from_i(p)
    return t.compose(rot).compose(t.inverse())


def is_identity(g: Isometry) -> bool:
    """Projective identity test (matrix ~ +-Id), at 100 * EPS_PT."""
    return projective_dist(g.entries(), (1, 0, 0, 1)) < 100 * config.EPS_PT


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

    With the disc entries (alpha, beta) (``disc_entries``), the fixed points
    of the disc action are w = (±r + i·Im alpha)/conj(beta), where
    r = sqrt((Re alpha)² - 1), and the derivative there is
    1/(Re alpha ± r)²: the end whose ±r has the sign of Re alpha attracts.
    beta is not 0, since |beta|² = |alpha|² - 1 >= (Re alpha)² - 1 > 0."""
    cls = classify(g)
    if cls.kind is not IsometryKind.HYPERBOLIC:
        raise GeometryError(f"axis requested for {cls.kind.value} isometry")
    alpha, beta = disc_entries(g.entries())
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


def _point_at(direction_angle: float, dist: float) -> HPoint:
    # From i, travel `dist` in the tangent direction making angle
    # `direction_angle` with +x (so +y is pi/2).
    up = HPoint(0.0, math.exp(dist))
    rot = rotation_about(HPoint(0.0, 1.0), direction_angle - math.pi / 2.0)
    return apply(rot, up)


def triangle_from_angles(p: int, q: int, r: int) -> tuple[HPoint, HPoint, HPoint]:
    """Canonical triangle with angles pi/p, pi/q, pi/r.

    Pose: P = i, Q east of P along the unit half-circle, R at angle +pi/p
    counterclockwise from the PQ direction, so (P, Q, R) is positively
    oriented.  Rejects non-hyperbolic parameter triples.
    """
    if p * q + q * r + r * p >= p * q * r:  # 1/p + 1/q + 1/r >= 1
        raise GeometryError(f"({p},{q},{r}) is not a hyperbolic triple")
    ap, aq, ar = math.pi / p, math.pi / q, math.pi / r
    d_pq = side_length_from_angles(ap, aq, ar)
    d_pr = side_length_from_angles(ap, ar, aq)
    P = HPoint(0.0, 1.0)
    Q = _point_at(0.0, d_pq)
    R = _point_at(ap, d_pr)
    return P, Q, R


# --- Disc and Klein coordinates, and the geodesic operations on chords ---

def cayley(z: complex) -> complex:
    """Cayley map z -> (z - i)/(z + i) of the closed half-plane onto the
    closed disc."""
    return (z - 1j) / (z + 1j)


def to_disc(p: HPoint) -> tuple[float, float]:
    """Poincare-disc coordinates of p (``cayley``)."""
    w = cayley(p.as_complex())
    return (w.real, w.imag)


def to_klein(p: HPoint) -> tuple[float, float]:
    wx, wy = to_disc(p)
    s = 2.0 / (1.0 + wx * wx + wy * wy)
    return (s * wx, s * wy)


def klein_to_hpoint(kx: float, ky: float) -> HPoint:
    n = kx * kx + ky * ky
    if n >= 1.0:
        raise GeometryError("Klein point outside the disc")
    s = 1.0 / (1.0 + math.sqrt(1.0 - n))
    wx, wy = s * kx, s * ky
    w = complex(wx, wy)
    z = 1j * (1 + w) / (1 - w)
    return HPoint(z.real, z.imag)


def geodesic_through(p: HPoint, q: HPoint) -> Geodesic:
    """Oriented geodesic through p then q: its ends are the points
    kp + s·(kq - kp) of the Klein line through their Klein points with
    |kp + s·(kq - kp)| = 1, u at the root s < 0 and v at the root s > 1."""
    if distance(p, q) < config.EPS_PT:
        raise GeometryError("geodesic through coincident points")
    (px, py), (qx, qy) = to_klein(p), to_klein(q)
    dx, dy = qx - px, qy - py
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


def geodesic_crossing(g1: Geodesic, g2: Geodesic
                      ) -> Optional[tuple[HPoint, float]]:
    """Transverse crossing point of two geodesics and their unoriented angle
    in [0, pi/2], or None if they are disjoint or equal.

    Decided and computed on the Klein chords n·k = c (``klein_line``), by
    their spacelike normals m = (n, c) in the hyperboloid model, with
    B(m1, m2) = n1·n2 - c1·c2 (Ratcliffe, *Foundations of Hyperbolic
    Manifolds*, ch. 3): the chords cross inside the disc iff
    B(m1, m2)² < B(m1, m1)·B(m2, m2), and then the point solves both line
    equations and cos of the angle is |B(m1, m2)| / sqrt(B(m1, m1)·B(m2, m2)).
    """
    n1x, n1y, c1, _ = g1.klein_line
    n2x, n2y, c2, _ = g2.klein_line
    b12 = n1x * n2x + n1y * n2y - c1 * c2
    b11b22 = (n1x * n1x + n1y * n1y - c1 * c1) * (n2x * n2x + n2y * n2y - c2 * c2)
    if not b12 * b12 < b11b22 or same_geodesic(g1, g2, config.EPS_PT):
        return None
    det = n1x * n2y - n1y * n2x
    point = klein_to_hpoint((c1 * n2y - c2 * n1y) / det,
                            (n1x * c2 - n2x * c1) / det)
    return point, math.acos(min(1.0, abs(b12) / math.sqrt(b11b22)))


def axis_parameter(g: Geodesic, p: HPoint) -> float:
    """Signed arclength coordinate along g of the foot of p, increasing
    toward g.v, 0 at the midpoint of g's chord.

    The foot f is where the Klein line through p's Klein point k and the
    pole of the chord n·k = c (``klein_line``) meets the chord:
    f = k + mu·(n - c·k), mu = (c - n·k)/(|n|² - c·n·k).  Its affine
    coordinate s along the chord, 0 at the midpoint m = (u + v)/2 and ±1 at
    the ends m ± h, h = (v - u)/2, gives the coordinate atanh(s): the Klein
    distance is half the log of a cross-ratio, which affine maps keep.
    """
    kx, ky = to_klein(p)
    nx, ny, c, _ = g.klein_line
    nk = nx * kx + ny * ky
    mu = (c - nk) / (nx * nx + ny * ny - c * nk)
    m, h = 0.5 * (g.u + g.v), 0.5 * (g.v - g.u)
    fx, fy = kx + mu * (nx - c * kx) - m.real, ky + mu * (ny - c * ky) - m.imag
    return math.atanh((fx * h.real + fy * h.imag)
                      / (h.real * h.real + h.imag * h.imag))


def foot_on_axis(g: Geodesic, t: float) -> HPoint:
    """Point of g at axis parameter t (inverse of axis_parameter): the
    Klein point m + tanh(t)·h."""
    k = 0.5 * (g.u + g.v) + math.tanh(t) * 0.5 * (g.v - g.u)
    return klein_to_hpoint(k.real, k.imag)
