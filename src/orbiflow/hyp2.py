"""Upper half-plane geometry: points, geodesics, isometries, classification.

Model conventions
-----------------
Points live in the upper half-plane {x + iy : y > 0}.  Orientation-preserving
isometries are real 2x2 matrices of determinant 1 acting by Mobius
transformations z -> (az + b)/(cz + d).  Products choose no sign: every
formula of the action reads M and -M alike (IEEE negation is exact), and
equality is decided up to sign (``projective_dist``).  Ideal boundary
points are reals plus the dedicated marker ``INF`` (math.inf), never a
large finite stand-in.  A geodesic carries its two ends as points (x, y) of
the unit circle (``Geodesic.klein_ends``, the Cayley images, INF mapping to
1), and every predicate on geodesics reads those points.

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

INF = math.inf


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

    def boundary_image(self, t: float) -> float:
        """Action on the ideal boundary R u {INF}."""
        if t is INF or math.isinf(t):
            return INF if abs(self.c) < 1e-300 else self.a / self.c
        den = self.c * t + self.d
        if den == 0.0:
            return INF
        return (self.a * t + self.b) / den


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
    """Oriented complete geodesic with ideal endpoints u -> v (real or INF)."""

    __slots__ = ("u", "v", "__dict__")  # the dict holds the cached properties

    def __init__(self, u: float, v: float):
        if u == v:
            raise GeometryError("geodesic needs distinct ideal endpoints")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @cached_property
    def klein_ends(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The ends (x, y) on the unit circle (``boundary_point`` of u and
        v): the chord that is this geodesic in the Klein disc, computed on
        first use and kept."""
        a, b = boundary_point(self.u), boundary_point(self.v)
        return ((a.real, a.imag), (b.real, b.imag))

    @cached_property
    def klein_line(self) -> tuple[float, float, float, float]:
        """(nx, ny, c, |n|): the line n·k = c through ``klein_ends``, computed
        on first use and kept."""
        a, b = self.klein_ends
        nx, ny = b[1] - a[1], a[0] - b[0]
        return nx, ny, nx * a[0] + ny * a[1], math.hypot(nx, ny)


def mobius(e: Entries, z: complex) -> complex:
    """Image of z under the matrix with entry tuple e; the kernel of apply."""
    a, b, c, d = e
    return (a * z + b) / (c * z + d)


def apply(g: Isometry, p: HPoint) -> HPoint:
    w = mobius(g.entries(), p.as_complex())
    return HPoint(w.real, w.imag)


def apply_geodesic(g: Isometry, geo: Geodesic) -> Geodesic:
    return Geodesic(g.boundary_image(geo.u), g.boundary_image(geo.v))


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
    """Oriented axis of a hyperbolic isometry, repelling -> attracting."""
    cls = classify(g)
    if cls.kind is not IsometryKind.HYPERBOLIC:
        raise GeometryError(f"axis requested for {cls.kind.value} isometry")
    if abs(g.c) < config.EPS_PT:
        # Fixed points: INF and b/(d - a).
        other = g.b / (g.d - g.a)
        # At INF the derivative is (a/d) = a^2; attracting iff |a| > 1.
        if abs(g.a) > 1.0:
            return Geodesic(other, INF)
        return Geodesic(INF, other)
    disc = math.sqrt((g.a - g.d) ** 2 + 4.0 * g.b * g.c)
    z1 = ((g.a - g.d) - disc) / (2.0 * g.c)
    z2 = ((g.a - g.d) + disc) / (2.0 * g.c)
    # Attracting fixed point has |g'(z)| = 1/(cz + d)^2 < 1.
    if abs(g.c * z1 + g.d) > 1.0:
        return Geodesic(z1, z2)
    return Geodesic(z2, z1)


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


# --- Disc-model coordinates (used for dedup keys, cells, and rendering) ---

def cayley(z: complex) -> complex:
    """Cayley map z -> (z - i)/(z + i) of the closed half-plane onto the
    closed disc."""
    return (z - 1j) / (z + 1j)


def to_disc(p: HPoint) -> tuple[float, float]:
    """Poincare-disc coordinates of p (``cayley``)."""
    w = cayley(p.as_complex())
    return (w.real, w.imag)


def boundary_point(t: float) -> complex:
    """Disc boundary point of the ideal point t (INF maps to 1)."""
    if math.isinf(t):
        return complex(1.0, 0.0)
    return cayley(complex(t, 0.0))


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
    """Oriented geodesic through p then q."""
    eps = config.EPS_PT
    if distance(p, q) < eps:
        raise GeometryError("geodesic through coincident points")
    if abs(q.x - p.x) <= eps * (1.0 + abs(p.x) + abs(q.x)):
        return Geodesic(p.x, INF) if q.y > p.y else Geodesic(INF, p.x)
    c = (q.x * q.x + q.y * q.y - p.x * p.x - p.y * p.y) / (2.0 * (q.x - p.x))
    rad = math.hypot(p.x - c, p.y)
    # Traveling p -> q decreases the polar angle about c iff q is clockwise.
    tp = math.atan2(p.y, p.x - c)
    tq = math.atan2(q.y, q.x - c)
    if tq < tp:
        return Geodesic(c - rad, c + rad)
    return Geodesic(c + rad, c - rad)


def _near(p: tuple[float, float], q: tuple[float, float], eps: float) -> bool:
    return abs(p[0] - q[0]) < eps and abs(p[1] - q[1]) < eps


def same_geodesic(g1: Geodesic, g2: Geodesic, eps: float) -> bool:
    """Unordered coincidence of two geodesics: their ends on the unit
    circle (``klein_ends``) lie within eps in Chebyshev distance, in either
    order."""
    a1, b1 = g1.klein_ends
    a2, b2 = g2.klein_ends
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
    """Signed arclength coordinate of p along g (increasing toward g.v).

    The zero point is fixed by the endpoint normalization (t = log|w| where
    w = (z - u)/(z - v) maps the axis to the imaginary half-line), giving a
    deterministic base point per oriented geodesic.
    """
    z = p.as_complex()
    if math.isinf(g.v):
        w = z - g.u
        return math.log(abs(w))
    if math.isinf(g.u):
        w = 1.0 / (z - g.v)
        return math.log(abs(w))
    w = (z - g.u) / (z - g.v)
    return math.log(abs(w))


def foot_on_axis(g: Geodesic, t: float) -> HPoint:
    """Point of g at axis parameter t (inverse of axis_parameter)."""
    if math.isinf(g.v):
        return HPoint(g.u, math.exp(t))
    if math.isinf(g.u):
        return HPoint(g.v, math.exp(-t))
    # z -> (z - u)/(z - v) sends the axis to the ray s*i*e^t, where the side
    # s = sign(u - v) records whether the map preserves the half-plane.
    s = 1.0 if g.u > g.v else -1.0
    w = complex(0.0, s * math.exp(t))
    z = (g.u - g.v * w) / (1.0 - w)
    return HPoint(z.real, z.imag)
