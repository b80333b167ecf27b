"""Dense univariate polynomials over exact rationals.

Root-dependent quantities (integral of |P|, sup norm on an interval) are
computed on an exact path when the relevant roots are rational, and
otherwise fall back to certified enclosures with a configurable absolute
error bound. Each comes back as a `CertifiedValue`, and `+` is the one
way to combine them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .intervalsets import _cleared, _q

DEFAULT_TOL = Fraction(1, 10**12)


class Polynomial:
    """Polynomial with rational coefficients in its cleared form: ints
    `nums`, lowest power first, trailing zeros stripped, over the int
    `den` > 0 with gcd(den, *nums) == 1, so equal polynomials have equal
    forms. The zero polynomial has nums (), den 1 and degree -1. Every
    operation runs on the ints; `coeffs` reads Fractions. Immutable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        values = [_q(c) for c in coeffs]  # the one Fraction entry gate
        self._store(*_cleared(values))

    def _store(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        object.__setattr__(self, "nums", tuple([n // g for n in nums]))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_ints(nums, den: int = 1) -> "Polynomial":
        """sum nums[k] y^k / den for ints nums and den != 0."""
        p = object.__new__(Polynomial)
        p._store(list(nums), den)
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c) -> "Polynomial":
        c = _q(c)
        return Polynomial.from_ints((c.numerator,), c.denominator)

    @staticmethod
    def from_taylor(coeffs, center) -> "Polynomial":
        """Expand sum c_k (y - center)^k into the monomial basis, by
        Horner's rule in y - center."""
        shift = Polynomial((-_q(center), 1))
        p = Polynomial.zero()
        for c in list(coeffs)[::-1]:
            p = p * shift + c
        return p

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power first."""
        # a list, as intervalsets._cleared explains
        return tuple([Fraction(n, self.den) for n in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        return isinstance(other, Polynomial) and (
            self.nums, self.den) == (other.nums, other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = ["%s*y^%d" % (c, k) for k, c in enumerate(self.coeffs) if c != 0]
        return "Polynomial(%s)" % " + ".join(terms)

    def __call__(self, x):
        x = _q(x)  # p(n/q) = _homogeneous(nums, n, q) / (den q^degree)
        if not self.nums:
            return Fraction(0)
        q = x.denominator
        return Fraction(_homogeneous(self.nums, x.numerator, q),
                        self.den * q ** (len(self.nums) - 1))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        den = math.lcm(self.den, other.den)
        a = [n * (den // self.den) for n in self.nums]
        b = [n * (den // other.den) for n in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, n in enumerate(b):
            a[i] += n
        return Polynomial.from_ints(a, den)

    def __neg__(self):
        return Polynomial.from_ints([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _q(other)
            return Polynomial.from_ints([n * c.numerator for n in self.nums],
                                        self.den * c.denominator)
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, start=i):
                    out[j] += x * y
        return Polynomial.from_ints(out, self.den * other.den)

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out, base = Polynomial.constant(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # the base's next square is read only by a later bit
                base = base * base
        return out

    # -- calculus -------------------------------------------------------

    def derivative(self, k: int = 1) -> "Polynomial":
        """The k-th derivative: c_i y^i goes to c_i i!/(i-k)! y^(i-k)."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        return Polynomial.from_ints(
            [n * math.perm(i, k) for i, n in enumerate(self.nums[k:], start=k)],
            self.den)

    def antiderivative(self) -> "Polynomial":
        """c_i y^i goes to c_i / (i+1) y^(i+1), over den lcm(1..deg+1)."""
        M = math.lcm(*range(1, len(self.nums) + 1))
        return Polynomial.from_ints(
            [0] + [n * (M // i) for i, n in enumerate(self.nums, start=1)],
            self.den * M)

    def integral(self, a, b) -> Fraction:
        F = self.antiderivative()
        return F(b) - F(a)

    def divmod(self, other: "Polynomial"):
        """(q, r) with self = q * other + r and deg r < deg other, by long
        division of the numerators A of self by B of other scaled by c =
        lead(B)^steps, so each step divides exactly: c A = Q B + R on ints,
        q = Q den(other) / (c den(self)) and r = R / (c den(self))."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        B, d = other.nums, other.degree
        lead = B[-1]
        steps = max(0, len(self.nums) - d)
        c = lead ** steps
        rem = [n * c for n in self.nums]
        quot = [0] * steps
        for k in range(steps - 1, -1, -1):
            f = quot[k] = rem[k + d] // lead
            if f:
                for i in range(d):
                    rem[k + i] -= f * B[i]
        den = c * self.den
        return (Polynomial.from_ints([n * other.den for n in quot], den),
                Polynomial.from_ints(rem[:d], den))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def _sturm_chain(s: Polynomial):
    """s, s' and the negated remainders of their Euclidean sequence; the
    last member is a nonzero multiple of gcd(s, s')."""
    chain = [s, s.derivative()]
    while chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _scaled(p: Polynomial, x: Fraction) -> int:
    """den q^degree p(x) for x = n/q: an int with the sign of p(x)."""
    return _homogeneous(p.nums, x.numerator, x.denominator)


def _variations(chain, x) -> int:
    signs = [v > 0 for v in (_scaled(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _homogeneous(nums, p, q):
    """sum nums[k] p^k q^(deg-k), deg = len(nums) - 1, by Horner's rule:
    q^deg P(p/q) for the polynomial P with the integer coefficients nums,
    lowest power first; the one homogenised Horner rule. p is an int or an
    object array of ints, and so is the value; q is an int."""
    acc, power = p * 0, 1
    for c in reversed(nums):
        acc = acc * p + c * power
        power *= q
    return acc


def _simplest(A: int, B: int, Q: int):
    """(p, q): the fraction p/q with the smallest denominator in the
    closed interval [A/Q, B/Q], for A <= B and Q > 0; p and q coprime."""
    if A <= 0 <= B:
        return 0, 1
    if B < 0:
        p, q = _simplest(-B, -A, Q)
        return -p, q
    # While [a, b] holds no integer, a and b share the integer part fa and
    # the answer is fa + 1/(the answer for [1/(b - fa), 1/(a - fa)]); h/k
    # is the convergent of these partial quotients.
    pa, qa, pb, qb = A, Q, B, Q
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        ca = -(-pa // qa)
        if ca * qb <= pb:
            return ca * h + h_prev, ca * k + k_prev
        fa = ca - 1
        h, h_prev, k, k_prev = fa * h + h_prev, h, fa * k + k_prev, k
        pa, qa, pb, qb = qb, pb - fa * qb, qa, pa - fa * qa


@dataclass
class RootEnclosure:
    """One real root of a squarefree polynomial: exact when lo == hi,
    otherwise bracketed by lo < hi."""

    lo: Fraction
    hi: Fraction
    poly: Optional["Polynomial"] = None  # sign-changing witness for brackets

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lo if self.lo == self.hi else None

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def isolate_roots(p: Polynomial, a, b) -> list:
    """Isolate the distinct real roots of p in the open interval (a, b).

    Returns RootEnclosure items sorted left to right. Rational roots are
    detected exactly (endpoint hits, midpoint hits and simplest-fraction
    candidates during later refinement can sharpen the rest).
    """
    a, b = _q(a), _q(b)
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if a >= b:
        return []
    s = p
    chain = _sturm_chain(p)
    if chain[-1].degree > 0:
        # repeated roots: divide out gcd(p, p'), the chain's monic last member
        s = p // Polynomial.from_ints(chain[-1].nums, chain[-1].nums[-1])
    # deflate rational roots at the endpoints so Sturm counts are clean;
    # s is squarefree, so each endpoint is at most a simple root
    for endpoint in (a, b):
        if _scaled(s, endpoint) == 0:
            s = s // Polynomial((-endpoint, 1))
    found_interior = []
    while True:
        if chain[0] is not s:  # s was divided since its chain was built
            chain = _sturm_chain(s)
        # an interior rational root hit mid-bisection triggers deflation
        hit, brackets = _isolate_squarefree(s, chain, a, b)
        if hit is not None:
            s = s // Polynomial((-hit, 1))
            found_interior.append(hit)
            continue
        # split any bracket straddling an already-deflated root so the
        # left-to-right order of enclosures is trustworthy
        for r in found_interior:
            split = []
            for lo, hi in brackets:
                if lo < r < hi:
                    side = ((lo, r) if (_scaled(s, lo) > 0) != (_scaled(s, r) > 0)
                            else (r, hi))
                    split.append(side)
                else:
                    split.append((lo, hi))
            brackets = split
        out = [RootEnclosure(r, r) for r in found_interior]
        out.extend(RootEnclosure(lo, hi, s) for lo, hi in brackets)
        out.sort(key=lambda e: e.midpoint)
        return out


def _isolate_squarefree(s: Polynomial, chain, a: Fraction, b: Fraction):
    """One isolation pass over s's Sturm chain; returns (None, brackets),
    or (root, []) at the first midpoint that is a root of s."""
    va, vb = _variations(chain, a), _variations(chain, b)
    brackets = []
    stack = [(a, va, b, vb)]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        n = vlo - vhi
        if n <= 0:
            continue
        if n == 1:
            brackets.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _scaled(s, mid) == 0:
            return mid, []  # caller deflates and restarts
        vm = _variations(chain, mid)
        stack.append((lo, vlo, mid, vm))
        stack.append((mid, vm, hi, vhi))
    return None, brackets


def refine_root(enc: RootEnclosure, width: Fraction) -> RootEnclosure:
    """Shrink a bracket below `width`, catching rational roots exactly.

    The bracket's witness polynomial changes sign exactly once inside it.
    The bisection runs on ints over a shared denominator: the bracket is
    [A/Q, B/Q] with Q the lcm of its ends' denominators, each step doubles
    A, B and Q, and the witness's sign at p/q is that of its homogenised
    Horner value on its numerators.
    ValueError when width <= 0, which no bisection reaches.
    """
    width = _q(width)
    if width <= 0:
        raise ValueError("refinement width must be positive")
    if enc.exact is not None:
        return enc
    s = enc.poly
    (A, B), Q = _cleared((enc.lo, enc.hi))
    cs = s.nums  # _homogeneous(cs, p, q) has the sign of s(p/q)
    sign_lo = _homogeneous(cs, A, Q) > 0
    cand = None
    while (B - A) * width.denominator > width.numerator * Q:
        # the simplest fraction of a bracket is also the simplest of every
        # sub-bracket holding it, so it is recomputed (and tested) only
        # once the bracket has shrunk past it
        if cand is None or not A * cand[1] <= cand[0] * Q <= B * cand[1]:
            cand = _simplest(A, B, Q)
            if (A * cand[1] < cand[0] * Q < B * cand[1]
                    and _homogeneous(cs, *cand) == 0):
                root = Fraction(*cand)
                return RootEnclosure(root, root)
        mid, A, B, Q = A + B, 2 * A, 2 * B, 2 * Q
        fm = _homogeneous(cs, mid, Q)
        if fm == 0:
            root = Fraction(mid, Q)
            return RootEnclosure(root, root)
        if (fm > 0) == sign_lo:
            A = mid
        else:
            B = mid
    return RootEnclosure(Fraction(A, Q), Fraction(B, Q), s)


def _coeff_bound(p: Polynomial, a: Fraction, b: Fraction) -> Fraction:
    """Upper bound sum |c_k| M^k for |p| on [a, b], M = max(|a|, |b|, 1)."""
    bound = Polynomial.from_ints([abs(n) for n in p.nums], p.den)
    return bound(max(abs(a), abs(b), Fraction(1)))


# ---------------------------------------------------------------------------
# certified quantities
# ---------------------------------------------------------------------------


@dataclass
class CertifiedValue:
    """A rational value plus an exactness flag and error bound;
    `CertifiedValue(x)` is exact. `+` carries both: the sum is exact
    only when both operands are, and its bound covers theirs."""

    value: Fraction
    exact: bool = True
    error: Fraction = Fraction(0)

    def __float__(self):
        return float(self.value)

    def __add__(self, other: "CertifiedValue") -> "CertifiedValue":
        return CertifiedValue(self.value + other.value,
                              self.exact and other.exact,
                              self.error + other.error)


def abs_integral(p: Polynomial, a, b, tol: Fraction = DEFAULT_TOL) -> CertifiedValue:
    """Integral of |p| over [a, b].

    Exact whenever the sign changes of p inside (a, b) happen at rational
    points; otherwise correct to within `tol`. The one-end case of
    `prefix_abs_integrals`.
    """
    a, b = _q(a), _q(b)
    if a > b:
        raise ValueError("require a <= b")
    return prefix_abs_integrals(p, a, (b,), tol)[0]


def prefix_abs_integrals(p: Polynomial, a, ends, tol: Fraction = DEFAULT_TOL) -> list:
    """Integrals of |p| over [a, b], one per b in the nondecreasing `ends`.

    The roots of p on (a, last b) are isolated and refined once, to a
    width set by their count and by the bound on |p| over the whole
    [a, last b]. Each value is exact when the sign changes inside its
    interval are rational, and otherwise within `tol`: a bracketed root
    whose bracket starts below b costs at most 2 * width * bound there,
    whichever side of b the root lies on. The antiderivative F is read at
    each b = E/D, the ends cleared over D, by the homogenised Horner rule:
    F(b) = _homogeneous(nums, E, D) / K. With F = u / w at the last break
    below b (a or a root's midpoint) and |p| integrated up to it s / t,
    the integral to b is (|FE w - u K| t + s K w) / (K w t).
    """
    a = _q(a)
    ends = [_q(b) for b in ends]
    if not ends:
        return []
    if ends[0] < a or any(x > y for x, y in zip(ends, ends[1:])):
        raise ValueError("require a <= b, with the ends nondecreasing")
    last = ends[-1]
    if p.is_zero:
        return [CertifiedValue(Fraction(0)) for _ in ends]
    roots = isolate_roots(p, a, last)
    if roots:  # the bound on |p| prices each root's bracket
        bound = _coeff_bound(p, a, last)
        budget = tol / (2 * len(roots))
        width = budget / (2 * bound) if bound > 0 else Fraction(1)
        roots = [refine_root(enc, width) for enc in roots]
    F = p.antiderivative()
    E, D = _cleared(ends)
    K = F.den * D ** F.degree
    out = []
    passed = Fraction(0)  # integral of |p| from a to the last break below b
    F_break = F(a)
    cost = CertifiedValue(Fraction(0))  # of the brackets starting below b
    n_breaks = n_costed = 0
    for b, e in zip(ends, E):
        while n_breaks < len(roots) and roots[n_breaks].midpoint < b:
            F_mid = F(roots[n_breaks].midpoint)
            passed += abs(F_mid - F_break)
            F_break = F_mid
            n_breaks += 1
        while n_costed < len(roots) and roots[n_costed].lo < b:
            enc = roots[n_costed]  # an exact root costs nothing: width 0
            cost += CertifiedValue(Fraction(0), enc.exact is not None,
                                   2 * enc.width * bound)
            n_costed += 1
        (u, w), (s, t) = F_break.as_integer_ratio(), passed.as_integer_ratio()
        fe = _homogeneous(F.nums, e, D)
        out.append(CertifiedValue(Fraction(abs(fe * w - u * K) * t + s * K * w,
                                           K * w * t), cost.exact, cost.error))
    return out


def sup_norm(p: Polynomial, a, b, tol: Fraction = DEFAULT_TOL) -> CertifiedValue:
    """max over [a, b] of |p|, via endpoints and critical points."""
    a, b = _q(a), _q(b)
    if a > b:
        raise ValueError("require a <= b")
    candidates = [abs(p(a)), abs(p(b))]
    exact = True
    error = Fraction(0)
    dp = p.derivative()
    if dp.degree >= 1:
        crits = isolate_roots(dp, a, b)
        if crits:
            dbound = _coeff_bound(dp, a, b)
            width = tol / dbound if dbound > 0 else Fraction(1)
            for enc in crits:
                enc = refine_root(enc, width)  # an exact root has width 0
                exact = exact and enc.exact is not None
                error = max(error, enc.width * dbound)
                candidates.append(abs(p(enc.midpoint)))
    return CertifiedValue(max(candidates), exact, error)

