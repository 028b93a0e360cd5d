"""Dehn-surgery slope calculus and first-homology cross-checks.

Two independent computations feed the main comparison:

* ``surgered_h1``: homology of the filling of the suspension-flow complement
  of a periodic orbit.  The complement's fibered presentation does not
  depend on the slope, so it is built once per orbit: the fiber is the
  punctured torus, cut by arcs that join consecutive punctures.  Monodromy
  images of the homology basis and the longitude (the stable-direction
  push-off of the orbit, assembled from flow-box chains) are read as
  classes from their crossings with the arcs, counted exactly on integers
  over a common denominator.  The puncture loops need no crossing count:
  arc i runs from puncture i to puncture i+1, so the loop around puncture
  j pairs +1 with arc j and -1 with arc j-1 by construction, and a class's
  puncture coefficients are running sums of its arc crossings.  A slope
  b/a then contributes one fill row, a*longitude + b*meridian.
* ``seifert_h1``: abelianization of the standard presentation of the unit
  tangent bundle of a triangle orbifold with exceptional fibers
  (p,1), (q,1), (r,1).

Both reduce by Smith normal form; agreement on the five theorem rows is the
acceptance gate for the presentation conventions.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from . import ChainError, Value, config, intlinalg
from .torusmap import CAT, CatOrbit, RationalPoint, TorusMatrix, act, orbit_of

Vec = tuple[Fraction, Fraction]
IVec = tuple[int, int]  # a Vec scaled by a common denominator
# Slope-free relation rows and the longitude class of an orbit complement.
Complement = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]


class DegenerateChoiceError(ChainError, RuntimeError):
    """A generic-position parameter hit a degeneracy; retry with the next.
    ``_complement`` raises it when every choice has hit one."""
    kind = "degeneracy (surgery)"


class WindingError(ChainError, ValueError):
    """A cycle that does not close, or whose arc crossings do not sum to 0."""
    kind = "winding (surgery)"


class OrbitCycleError(ChainError, ValueError):
    """An orbit whose points the matrix does not carry each to the next."""
    kind = "orbit (surgery)"


class NotHyperbolicError(ChainError, ValueError):
    """A Seifert side's orbifold triple (p, q, r) with 1/p + 1/q + 1/r >= 1."""
    kind = "hyperbolicity (surgery)"


class SlopeError(ChainError, ValueError):
    """A section boundary direction (a, b) with b <= 0 or not primitive."""
    kind = "slope (surgery)"


class SlopeCoefficient(Value):
    """Surgery coefficient b/a: the new meridian is homologous to a*l + b*m."""

    __slots__ = ("b", "a")

    def __init__(self, b: int, a: int):
        if a < 0 or (a == 0 and abs(b) != 1):
            raise ValueError("denominator convention: a > 0, or a = 0 with b = +-1")
        if math.gcd(abs(a), abs(b)) != 1:
            raise ValueError(f"slope {b}/{a} not in lowest terms")
        Value.__init__(self, b, a)

    def __str__(self) -> str:
        return f"{self.b}/{self.a}"


class AbelianGroup(Value):
    """Invariant factors d1 | d2 | ...; factors >= 2 first, 0 per free rank."""

    __slots__ = ("invariant_factors",)
    invariant_factors: tuple[int, ...]

    @staticmethod
    def from_relation_rows(rows: Sequence[Sequence[int]], n_generators: int) -> "AbelianGroup":
        if not rows:
            return AbelianGroup((0,) * n_generators)
        D, _, _ = intlinalg.smith_normal_form([list(r) for r in rows])
        diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
        torsion = tuple(d for d in diag if d not in (0, 1))
        free = n_generators - sum(1 for d in diag if d != 0)
        return AbelianGroup(torsion + (0,) * free)

    def order(self) -> Optional[int]:
        if 0 in self.invariant_factors:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


class SurgerySpec(Value):
    __slots__ = ("orbit", "slope")
    orbit: CatOrbit
    slope: SlopeCoefficient


# --- Exact winding machinery on the punctured torus -------------------------
#
# The crossing tests run on integers: `_torus_cross` scales its cycle and arc
# by the common denominator L of their coordinates.  Scaling by L > 0 keeps
# every orientation sign and every coordinate order, so each crossing and
# each DegenerateChoiceError is the one the rational points give.

def _orient(a: IVec, b: IVec, c: IVec) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segment_cross_sign(p: IVec, q: IVec, r: IVec, s: IVec) -> int:
    """+-1 for a proper crossing of segment pq over the oriented arc rs
    (+1 when pq crosses from the right of rs to its left), 0 if disjoint.
    Touching or collinear configurations raise."""
    d1 = _orient(r, s, p)
    d2 = _orient(r, s, q)
    d3 = _orient(p, q, r)
    d4 = _orient(p, q, s)
    if (d1 < 0 < d2 or d2 < 0 < d1) and (d3 < 0 < d4 or d4 < 0 < d3):
        return 1 if d1 < 0 else -1
    if d1 == 0 and d2 == 0:
        # Collinear: overlapping segments are degenerate, disjoint ones fine.
        lo1, hi1 = sorted((p, q))
        lo2, hi2 = sorted((r, s))
        if max(lo1, lo2) <= min(hi1, hi2):
            raise DegenerateChoiceError("collinear overlap")
        return 0
    if (d1 == 0 and min(r[0], s[0]) <= p[0] <= max(r[0], s[0])
            and min(r[1], s[1]) <= p[1] <= max(r[1], s[1])):
        raise DegenerateChoiceError("segment endpoint on arc")
    if (d2 == 0 and min(r[0], s[0]) <= q[0] <= max(r[0], s[0])
            and min(r[1], s[1]) <= q[1] <= max(r[1], s[1])):
        raise DegenerateChoiceError("segment endpoint on arc")
    if (d3 == 0 and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])):
        raise DegenerateChoiceError("arc endpoint on segment")
    if (d4 == 0 and min(p[0], q[0]) <= s[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= s[1] <= max(p[1], q[1])):
        raise DegenerateChoiceError("arc endpoint on segment")
    return 0


def _torus_cross(cycle: Sequence[Vec], arc: tuple[Vec, Vec]) -> int:
    """Signed crossings of a closed polyline (mod Z^2) with all integer
    translates of the arc, counted on integers over a common denominator."""
    L = math.lcm(*(f.denominator for v in (*cycle, *arc) for f in v))
    pts = [(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator))
           for x, y in (*cycle, *arc)]
    (rx, ry), (sx, sy) = pts[-2:]
    total = 0
    for p, q in zip(pts, pts[1:len(cycle)]):
        if p == q:
            continue
        x_lo = (min(p[0], q[0]) - max(rx, sx)) // L
        x_hi = (max(p[0], q[0]) - min(rx, sx)) // L
        y_lo = (min(p[1], q[1]) - max(ry, sy)) // L
        y_hi = (max(p[1], q[1]) - min(ry, sy)) // L
        for vx in range(x_lo, x_hi + 2):
            for vy in range(y_lo, y_hi + 2):
                r = (rx + vx * L, ry + vy * L)
                s = (sx + vx * L, sy + vy * L)
                total += _segment_cross_sign(p, q, r, s)
    return total


def _mat_vec(A: TorusMatrix, v: Vec) -> Vec:
    return (A.a * v[0] + A.b * v[1], A.c * v[0] + A.d * v[1])


class PuncturedTorusBasis:
    """Homology bookkeeping for the torus punctured at a rational orbit.

    Basis: x (horizontal loop), y (vertical loop), mu_i (small loops around
    the punctures, with sum(mu_i) = 0).  Cut arc i runs from puncture i to
    puncture i+1 (for one puncture, to its translate by (1, 0)), so the loop
    mu_j crosses arc j once from right to left and arc j-1 once from left to
    right: the pairing of mu_j with arc i is [i = j] - [i = j-1], fixed by
    the layout.  Only x and y are paired against the arcs by crossing count.
    """

    def __init__(self, punctures: Sequence[Vec], salt: int = 0):
        c = len(punctures)
        offs = Fraction(2 * salt + 1, 64 + 17 * salt)
        x_height = Fraction(3, 7) + offs / 3
        y_offset = Fraction(2, 7) + offs / 5
        self.x_rep = [(offs, x_height), (1 + offs, x_height)]
        self.y_rep = [(y_offset, offs), (y_offset, 1 + offs)]
        self.arcs = [(p, punctures[(i + 1) % c] if c > 1 else (p[0] + 1, p[1]))
                     for i, p in enumerate(punctures)]
        self.x_cross = [_torus_cross(self.x_rep, arc) for arc in self.arcs]
        self.y_cross = [_torus_cross(self.y_rep, arc) for arc in self.arcs]

    def cycle_class(self, cycle: Sequence[Vec]) -> list[int]:
        """Coefficients (m, n, k_0 .. k_{c-1}) with k_{c-1} normalized to 0.

        With the x and y parts taken off, the cycle crosses arc i
        r_i = k_i - k_{i+1} times, so each k_i is the sum of r from arc i to
        arc c-2, and the r of a closed cycle sum to 0.
        """
        m = cycle[-1][0] - cycle[0][0]
        n = cycle[-1][1] - cycle[0][1]
        if m.denominator != 1 or n.denominator != 1:
            raise WindingError("polyline does not close on the torus")
        m, n = int(m), int(n)
        r = [_torus_cross(cycle, arc) - m * xc - n * yc
             for arc, xc, yc in zip(self.arcs, self.x_cross, self.y_cross)]
        if sum(r) != 0:
            raise WindingError("inconsistent winding system")
        ks = list(itertools.accumulate(reversed(r[:-1]), initial=0))
        return [m, n] + ks[::-1]


def _stable_direction(A: TorusMatrix) -> Vec:
    """Rational approximation of the contracting eigendirection of A."""
    t = A.trace()
    lam = (t - math.sqrt(t * t - 4)) / 2.0
    if A.b != 0:
        v = (float(A.b), lam - A.a)
    else:
        v = (lam - A.d, float(A.c))
    norm = math.hypot(*v)
    vx = Fraction(v[0] / norm).limit_denominator(10 ** 6)
    vy = Fraction(v[1] / norm).limit_denominator(10 ** 6)
    # The push-off framing needs the direction to be nearly A-equivariant.
    ax, ay = float(A.a * vx + A.b * vy), float(A.c * vx + A.d * vy)
    cosang = (ax * float(vx) + ay * float(vy)) / math.hypot(ax, ay)
    if cosang < 0.999:
        raise DegenerateChoiceError("stable direction approximation too coarse")
    return (vx, vy)


def _nearest_translate(target: Vec, base: Vec) -> Vec:
    """Translate of `base` by integers, nearest to `target` (rounded)."""
    def nearest_int(f: Fraction) -> int:
        return int(math.floor(f + Fraction(1, 2)))
    vx = nearest_int(target[0] - base[0])
    vy = nearest_int(target[1] - base[1])
    return (base[0] + vx, base[1] + vy)


def _complement_rows(orbit_pts: list[Vec],
                     basis: PuncturedTorusBasis) -> Complement:
    """Slope-free relation rows over generators (x, y, mu_0..mu_{c-1}, t),
    and the class of the longitude over the same generators."""
    A = CAT
    c = len(orbit_pts)
    rows: list[list[int]] = []
    rows.append([0, 0] + [1] * c + [0])  # sum of puncture loops bounds

    # Monodromy relations: image minus source, for x and y.
    for rep, idx in ((basis.x_rep, 0), (basis.y_rep, 1)):
        img = [_mat_vec(A, v) for v in rep]
        row = basis.cycle_class(img) + [0]
        row[idx] -= 1
        rows.append(row)
    # For the puncture loops the image is the loop at the image puncture.
    perm = []
    for i, p in enumerate(orbit_pts):
        img = _mat_vec(A, p)
        img = (img[0] % 1, img[1] % 1)
        perm.append(orbit_pts.index(img))
    for i in range(c):
        row = [0, 0] + [0] * c + [0]
        row[2 + perm[i]] += 1
        row[2 + i] -= 1
        rows.append(row)

    # Longitude: push off along the stable direction and follow the flow.
    u = _stable_direction(A)
    eps = Fraction(1, 1024)
    base_r0 = (Fraction(5, 13), Fraction(4, 11))
    q = [(p[0] + eps * u[0], p[1] + eps * u[1]) for p in orbit_pts]
    r0 = base_r0
    Ar0 = _mat_vec(A, r0)
    fiber_total = [0] * (2 + c)
    for i in range(c):
        Aqi = _mat_vec(A, q[i])
        q_next = _nearest_translate(Aqi, q[(i + 1) % c])
        pi_next_end = (r0[0] + (q_next[0] - q[(i + 1) % c][0]),
                       r0[1] + (q_next[1] - q[(i + 1) % c][1]))
        ret_end = (Ar0[0] + (pi_next_end[0] - r0[0]),
                   Ar0[1] + (pi_next_end[1] - r0[1]))
        poly = [Ar0, Aqi, q_next, pi_next_end, ret_end]
        cls = basis.cycle_class(poly)
        fiber_total = [a + b for a, b in zip(fiber_total, cls)]
    # The longitude runs c times along the suspension direction t.
    return tuple(map(tuple, rows)), tuple(fiber_total) + (c,)


@functools.lru_cache(maxsize=64)
def _complement(orbit: CatOrbit) -> Complement:
    """The slope-free presentation of the orbit complement, built once per
    orbit: relation rows and longitude class (see ``_complement_rows``)."""
    pts = orbit.points
    for i, p in enumerate(pts):
        if act(CAT, p) != pts[(i + 1) % len(pts)]:
            raise OrbitCycleError("orbit is not a forward cycle of the matrix")
    orbit_pts = [p.as_fractions() for p in pts]
    last_err: Optional[Exception] = None
    for salt in range(6):
        try:
            return _complement_rows(orbit_pts,
                                    PuncturedTorusBasis(orbit_pts, salt))
        except DegenerateChoiceError as err:
            last_err = err
    raise DegenerateChoiceError(f"no generic parameter choice worked: {last_err}")


@functools.lru_cache(maxsize=64)
def _reduced_complement(orbit: CatOrbit):
    """The complement's relation rows R in Smith form, once per orbit:
    with U·R·V = D, the diagonal d_j of D and the columns of V over the
    generators y_j = (V^-1·x)_j with d_j != 1 (a column beyond D's diagonal
    has d_j = 0), and the longitude class.  In the y the rows of R span the
    rows d_j·e_j, and a unit d_j kills y_j."""
    rows, longitude = _complement(orbit)
    D, _, V = intlinalg.smith_normal_form([list(r) for r in rows])
    diag = [D[j][j] if j < len(D) else 0 for j in range(len(longitude))]
    keep = [j for j, d in enumerate(diag) if d != 1]
    return (tuple(diag[j] for j in keep),
            tuple(tuple(row[j] for j in keep) for row in V), longitude)


def surgered_h1(spec: SurgerySpec) -> AbelianGroup:
    """First homology of the b/a filling of the orbit complement: the
    complement's relations plus the fill row f = a*longitude + b*meridian,
    reduced as the rows d_j·e_j and f·V over the generators that the
    complement's Smith form leaves (``_reduced_complement``)."""
    diag, V, longitude = _reduced_complement(spec.orbit)
    fill = [spec.slope.a * f for f in longitude]
    fill[2 + 0] += spec.slope.b  # meridian = loop around the base puncture
    rows = [[d if i == j else 0 for j in range(len(diag))]
            for i, d in enumerate(diag) if d]
    rows.append([sum(map(operator.mul, fill, col)) for col in zip(*V)])
    return AbelianGroup.from_relation_rows(rows, len(diag))


# --- Seifert side -----------------------------------------------------------

def seifert_h1(p: int, q: int, r: int) -> AbelianGroup:
    """Abelianized unit-tangent-bundle presentation over the (p,q,r) orbifold.

    Generators x1, x2, x3, h; relations alpha_i x_i + beta_i h = 0 and
    x1 + x2 + x3 - b0 h = 0, with (alpha_i, beta_i) = (p, 1), (q, 1), (r, 1)
    and b0 = -1, the convention with Euler number -(b0 + 1/p + 1/q + 1/r).
    """
    if p * q + q * r + r * p >= p * q * r:  # 1/p + 1/q + 1/r >= 1
        raise NotHyperbolicError(f"({p},{q},{r}) is not hyperbolic")
    rows = [[p, 0, 0, 1], [0, q, 0, 1], [0, 0, r, 1], [1, 1, 1, 1]]
    return AbelianGroup.from_relation_rows(rows, 4)


# --- Theorem-level assembly --------------------------------------------------

GAMMA1_BASE = RationalPoint.of(0, 0)
GAMMA2_BASE = RationalPoint.of(Fraction(3, 5), Fraction(1, 5))


def gamma1() -> CatOrbit:
    return orbit_of(CAT, GAMMA1_BASE)


def gamma2() -> CatOrbit:
    return orbit_of(CAT, GAMMA2_BASE)


# The rows of ``config.PAPER_ROWS`` in the paper's order: by orbit, then by
# the a of the slope 1/a.
THEOREM_ROWS = tuple((orbit, SlopeCoefficient(1, a), triple)
                     for _, triple, orbit, a, _, _ in sorted(
                         config.PAPER_ROWS, key=lambda row: row[2:4]))


class TheoremRowCheck(Value):
    __slots__ = ("orbit_name", "slope", "triple", "surgered", "seifert")
    orbit_name: str
    slope: SlopeCoefficient
    triple: tuple[int, int, int]
    surgered: AbelianGroup
    seifert: AbelianGroup

    @property
    def match(self) -> bool:
        return self.surgered == self.seifert


def verify_theorem_h1() -> list[TheoremRowCheck]:
    """Compare filling homology with unit-tangent-bundle homology, per row."""
    orbits = {"gamma1": gamma1(), "gamma2": gamma2()}
    out = []
    for name, slope, triple in THEOREM_ROWS:
        spec = SurgerySpec(orbits[name], slope)
        out.append(TheoremRowCheck(name, slope, triple,
                                   surgered_h1(spec), seifert_h1(*triple)))
    return out


def section_to_slope(direction: tuple[int, int]) -> SlopeCoefficient:
    """Boundary direction (a, b) of a section component to the filling slope
    b/a realizing its mapping torus."""
    a, b = direction
    if b <= 0:
        raise SlopeError(f"boundary direction must have b > 0, got {direction}")
    if math.gcd(abs(a), b) != 1:
        raise SlopeError(f"direction {direction} is not primitive")
    return SlopeCoefficient(b=b, a=a)

