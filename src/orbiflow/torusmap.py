"""Exact toolkit for hyperbolic torus automorphisms in SL(2, Z).

Everything here is integer or rational arithmetic: periodic points of the
standard area-preserving torus map with matrix (2 1; 1 1), conjugacy
classification by cyclic positive words in X = (1 1; 0 1) and Y = (1 0; 1 1),
and the uniqueness of the trace-3 class.

A hyperbolic A with one fixed point is conjugate to XY, in three exact steps.
A has |det(A - I)| = tr A - 2 fixed points (the Lefschetz count of
``periodic_point_count``), so trace 3.  A is conjugate to a cyclic positive
word W that uses both letters (``xy_normal_form``; Series, "The modular
surface and continued fractions", J. London Math. Soc. 31, 1985).  And
tr W >= |W| + 1, |W| the total exponent: for W = (a b; c d) >= 0,
tr(WX) = tr W + c and tr(WY) = tr W + b, an X in W gives b >= 1 and a Y
gives c >= 1, and tr(X^k Y) = tr(Y^k X) = k + 2.  So a trace-3 W has
|W| <= 3 - 1, and ``trace3_uniqueness`` searches only there.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from . import ChainError, Value, intlinalg


class OutOfFamilyError(ChainError, ValueError):
    """Matrix outside the classified family (trace <= 2)."""
    kind = "family (torusmap)"


class NormalFormError(ChainError, RuntimeError):
    """A normal form whose matrix lost a conjugacy invariant of its input:
    a reduction bug, caught by the exact self-check."""
    kind = "normal form (torusmap)"


class TorusMatrix(Value):
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant != 1 for {(a, b, c, d)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, o: "TorusMatrix") -> "TorusMatrix":
        return TorusMatrix(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                           self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inverse(self) -> "TorusMatrix":
        return TorusMatrix(self.d, -self.b, -self.c, self.a)

    def power(self, n: int) -> "TorusMatrix":
        if n < 0:
            return self.inverse().power(-n)
        out = IDENTITY
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_hyperbolic(self) -> bool:
        return abs(self.trace()) > 2


X = TorusMatrix(1, 1, 0, 1)
Y = TorusMatrix(1, 0, 1, 1)
IDENTITY = TorusMatrix(1, 0, 0, 1)
CAT = TorusMatrix(2, 1, 1, 1)


class RationalPoint(Value):
    """Point of Q^2/Z^2 with a shared reduced denominator, 0 <= num < den."""

    __slots__ = ("num_x", "num_y", "den")
    num_x: int
    num_y: int
    den: int

    @staticmethod
    def of(x, y) -> "RationalPoint":
        fx, fy = Fraction(x) % 1, Fraction(y) % 1
        den = math.lcm(fx.denominator, fy.denominator)
        return RationalPoint(int(fx * den), int(fy * den), den)

    def as_fractions(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.num_x, self.den), Fraction(self.num_y, self.den))


class CatOrbit(Value):
    __slots__ = ("points",)
    points: tuple[RationalPoint, ...]

    @property
    def period(self) -> int:
        return len(self.points)


def act(A: TorusMatrix, p: RationalPoint) -> RationalPoint:
    nx = (A.a * p.num_x + A.b * p.num_y) % p.den
    ny = (A.c * p.num_x + A.d * p.num_y) % p.den
    return RationalPoint.of(Fraction(nx, p.den), Fraction(ny, p.den))


def orbit_of(A: TorusMatrix, p: RationalPoint) -> CatOrbit:
    pts = [p]
    cur = act(A, p)
    while cur != p:
        pts.append(cur)
        cur = act(A, cur)
    return CatOrbit(tuple(pts))


def fixed_points(A: TorusMatrix) -> list[RationalPoint]:
    """All solutions of (A - I) x = 0 mod Z^2; exactly |det(A - I)| points."""
    M = [[A.a - 1, A.b], [A.c, A.d - 1]]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if det == 0:
        raise ValueError("A has eigenvalue 1; fixed points not isolated")
    sols = intlinalg.solve_mod1(M)
    return [RationalPoint.of(x, y) for x, y in sols]


def periodic_point_count(A: TorusMatrix, n: int) -> int:
    if not A.is_hyperbolic():
        raise OutOfFamilyError("periodic point counting needs |trace| > 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    P = A.power(n)
    return abs((P.a - 1) * (P.d - 1) - P.b * P.c)


# --- Cyclic positive words -------------------------------------------------

class CyclicXYWord(Value):
    """Positive word X^e1 Y^f1 ... X^ek Y^fk up to rotation by pairs."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        e = exponents
        if len(e) < 2 or len(e) % 2 != 0 or any(x < 1 for x in e):
            raise ValueError(f"invalid exponent sequence {e}")
        Value.__init__(self, e)

    @staticmethod
    def canonical(exponents: Iterable[int]) -> "CyclicXYWord":
        e = tuple(exponents)
        rotations = [e[i:] + e[:i] for i in range(0, len(e), 2)]
        return CyclicXYWord(min(rotations))

    def matrix(self) -> TorusMatrix:
        out = IDENTITY
        for i, k in enumerate(self.exponents):
            out = out * (X if i % 2 == 0 else Y).power(k)
        return out

    def __str__(self) -> str:
        parts = []
        for i, k in enumerate(self.exponents):
            letter = "X" if i % 2 == 0 else "Y"
            parts.append(letter if k == 1 else f"{letter}^{k}")
        return "".join(parts)


def _isqrt_floor_surd(p: int, D: int, q: int) -> int:
    """floor((p + sqrt(D)) / q) for non-square D > 0, q != 0, exactly."""
    s = math.isqrt(D)  # s < sqrt(D) < s + 1 since D is not a perfect square
    if q > 0:
        return (p + s) // q
    # floor(u/q) = -ceil(u/(-q)), and ceil(u/m) = floor((p + s)/m) + 1 for
    # irrational u = p + sqrt(D).
    return -((p + s) // (-q)) - 1


def _gauss_reduce(A: TorusMatrix) -> TorusMatrix:
    """Conjugate A (trace > 2) in SL(2, Z) to a nonnegative-entry matrix.

    Double continued-fraction steps on the attracting fixed point: each step
    conjugates by X^a Y^b (determinant 1), which walks the fixed point down
    its expansion until it is reduced, where the matrix is a positive word.
    Gives up after 400 steps.
    """
    cur = A
    for _ in range(400):
        a, b, c, d = cur.entries()
        if min(a, b, c, d) >= 0 and c + b > 0:
            return cur
        if c == 0:
            raise OutOfFamilyError("triangular matrix has trace 2")
        # Attracting fixed point (a - d + sqrt(D)) / (2c), D = tr^2 - 4.
        D = (a + d) ** 2 - 4
        p, q = a - d, 2 * c
        q0 = _isqrt_floor_surd(p, D, q)
        p1 = q0 * q - p
        q1_den = (D - p1 * p1) // q
        q1 = _isqrt_floor_surd(p1, D, q1_den)
        conj = X.power(q0) * Y.power(q1)
        cur = conj.inverse() * cur * conj
    raise OutOfFamilyError("continued-fraction reduction did not converge")


def _peel_positive(M: TorusMatrix) -> list[int]:
    """Factor a nonnegative matrix (trace > 2) as alternating X/Y blocks.

    SL(2, Z) matrices with nonnegative entries form a free monoid on X and Y;
    greedy Euclidean division peels maximal blocks.  Returns the exponent
    sequence rotated to start with an X block.
    """
    blocks: list[tuple[str, int]] = []
    cur = M
    for _ in range(10000):
        a, b, c, d = cur.entries()
        if (a, b, c, d) == (1, 0, 0, 1):
            break
        if c == 0 and d == 1:
            blocks.append(("X", b))
            break
        if b == 0 and a == 1:
            blocks.append(("Y", c))
            break
        if a >= c and b >= d:
            k = min(a // c if c else 10 ** 18, b // d if d else 10 ** 18)
            blocks.append(("X", k))
            cur = X.power(-k) * cur
        elif c >= a and d >= b:
            k = min(c // a if a else 10 ** 18, d // b if b else 10 ** 18)
            blocks.append(("Y", k))
            cur = Y.power(-k) * cur
        else:
            raise OutOfFamilyError(f"matrix {cur.entries()} is not a positive word")
    if len(blocks) < 2:
        raise OutOfFamilyError("word uses a single letter (trace 2 family)")
    letters = [l for l, _ in blocks]
    if any(letters[i] == letters[i + 1] for i in range(len(letters) - 1)):
        raise OutOfFamilyError("non-alternating peel; matrix not in family")
    if letters[0] == letters[-1]:  # cyclic merge of the wrapping block
        l0, k0 = blocks[0]
        blocks[0] = (l0, k0 + blocks[-1][1])
        blocks.pop()
    if blocks[0][0] == "Y":
        blocks = blocks[1:] + blocks[:1]
    return [k for _, k in blocks]


def xy_normal_form(A: TorusMatrix) -> CyclicXYWord:
    """Canonical cyclic positive word conjugate to A in SL(2, Z)."""
    if A.trace() <= 2:
        raise OutOfFamilyError(f"trace {A.trace()} <= 2 is outside the family")
    reduced = _gauss_reduce(A)
    word = CyclicXYWord.canonical(_peel_positive(reduced))
    # Exact self-checks: the word's matrix shares the conjugacy invariants.
    if word.matrix().trace() != A.trace():
        raise NormalFormError("normal form lost the trace; reduction bug")
    return word


def positive_words(max_total: int) -> Iterator[CyclicXYWord]:
    """All canonical cyclic words of total exponent <= max_total."""

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    seen: set[tuple[int, ...]] = set()
    for total in range(2, max_total + 1):
        for parts in range(2, total + 1, 2):
            for comp in compositions(total, parts):
                canon = CyclicXYWord.canonical(comp)
                if canon.exponents not in seen:
                    seen.add(canon.exponents)
                    yield canon


def trace3_uniqueness() -> bool:
    """The trace-3 class is XY: the trace-3 words within the bound of the
    module docstring, total exponent 3 - 1, are exactly [XY]."""
    found = [w for w in positive_words(3 - 1) if w.matrix().trace() == 3]
    return found == [CyclicXYWord((1, 1))]
