"""Exact sparse multivariate polynomials and integer linear forms.

Every equivariant computation in this package happens inside the ring
``R[x1, ..., xk]`` with ``R = Z`` or ``Q``, where ``k`` is the rank of the
acting torus (in affine cases the last slot is the loop-rotation
coordinate).  This module provides that ring with exact rational
arithmetic:

* :class:`Weight` -- an integer linear form, the label type for graph
  edges; weights have polynomial degree 1 (cohomological degree 2).
* :class:`Polynomial` -- sparse polynomial keyed by exponent vectors with
  exact rational coefficients: an ``int`` when integral, else a
  :class:`fractions.Fraction` (never one with denominator 1); zero
  coefficients are never stored and printing follows a fixed
  graded-lexicographic order, so text output is deterministic.
* :func:`divide_by_weight` -- exact division by a linear form, the
  primitive that all divisibility (congruence) checks reduce to.
* :func:`solve_congruences` -- the homogeneous congruence solver used to
  propagate generator values up a graph; it lifts the solution through
  one weight at a time by exact division (Chinese remaindering).
* :func:`parse_polynomial` -- reads the text that ``str(Polynomial)``
  writes, with one regular grammar, straight into normal form; a caller
  loading many texts passes one term cache, so that each distinct term
  text is read once per load.

Z-mode is a certificate layered on Q computation: the divisions are exact
over the rationals and integrality of the result is checked afterwards.

This module alone builds exponent vectors and normalizes coefficients.
Other modules work on term dicts (``{exponents: coefficient}`` in normal
form) through its kernels ``_add_product``, ``_add_multiple``,
``_divmod_weight``, ``_divmod_plan`` and ``_divide_exact``, read scalars
through ``_quo`` and ``_linear_coeffs``, read integer forms through
``_line_of`` and ``_plan_of`` and make constants through
``_constant_terms``.

Exponent vectors are interned: one process-wide table maps each vector to
one canonical tuple, so equal vectors are one object.  ``_add_product``,
``_divmod_plan`` and ``_divide_exact`` read ``e + d`` from the row of the
shift ``d`` (a factor's vector, ``-e_j`` and ``+e_i`` in a division by a
form, or minus the divisor's lead vector and each quotient vector in an
exact division) and compute a vector only on a row's first miss, and
``parse_polynomial``, ``_constant_terms`` and ``Weight.to_polynomial``
intern the vectors they make.  A third table holds, per rank, each unit
vector ``+e_i`` and ``-e_i`` with its shift row.  The tables grow only with the distinct
``(d, e)`` pairs and ranks a process computes with and are never emptied.
A division's set-up (its variable, its pivot coefficient and its shift
rows) is a plan that ``_plan_of`` makes from the integer form's
coefficients by reading the rank's unit rows.  A ``Weight`` stores its
plan on first use, so a graph's edge weights work it out once; a form
computed for one division, such as the solver's ``Phi(w) - Phi(v)``, is
divided through a plan made from its bare tuple, with no ``Weight``
built.  Nothing else is cached across calls: the parser's term cache
belongs to its caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, isqrt
from operator import add, lt

from .errors import (
    NoSolutionError,
    NonIntegralError,
    NonUniqueError,
    NotDivisibleError,
    PolynomialParseError,
    ZeroWeightError,
)

__all__ = [
    "Weight",
    "Polynomial",
    "divide_by_weight",
    "pairwise_coprime",
    "solve_congruences",
    "monomials",
    "parse_polynomial",
]


def _normal(c: Fraction) -> int | Fraction:
    """``c`` in coefficient normal form: an ``int`` when integral, else the
    ``Fraction`` itself (denominator > 1)."""
    return c.numerator if c.denominator == 1 else c


def _quo(a, b) -> int | Fraction:
    """The exact quotient ``a / b`` of ``int`` or ``Fraction`` scalars in
    coefficient normal form (so ``_quo(a, 1)`` normalizes ``a``)."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return _normal(Fraction(a, b))


def _add_multiple(acc: dict, terms: dict, c) -> None:
    """``acc += c * terms`` in place, for a nonzero scalar ``c``.  Like
    ``_add_product``, it keeps ``acc`` in normal form and ``terms`` as is."""
    for x, a in terms.items():
        s = acc.get(x, 0) + c * a
        if s:
            acc[x] = s if type(s) is int else _normal(s)
        else:
            del acc[x]  # c * a != 0, so x was present


# -- interned exponent arithmetic (see the module docstring) ---------------

# each vector made here -> its one canonical tuple
_VECTORS: dict[tuple[int, ...], tuple[int, ...]] = {}
# each shift d -> its row {e: e + d}, with interned keys and values
_SHIFTS: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}
# each rank n -> per slot i, (-e_i, row of -e_i, +e_i, row of +e_i)
_UNITS: dict[int, tuple[tuple, ...]] = {}


def _intern(e: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical tuple equal to ``e``."""
    return _VECTORS.setdefault(e, e)


def _shift_row(d: tuple[int, ...]) -> dict:
    """The row ``{e: e + d}`` of the shift ``d``, created empty on first use."""
    row = _SHIFTS.get(d)
    return _SHIFTS.setdefault(_intern(d), {}) if row is None else row


def _shift_miss(row: dict, e: tuple[int, ...], d: tuple[int, ...]) -> tuple[int, ...]:
    """``e + d`` for a pair not yet in ``row``, the row of ``d``; stores it there."""
    t = _intern(tuple(map(add, e, d)))
    row[_intern(e)] = t
    return t


def _unit(i: int, n: int, v: int = 1) -> tuple[int, ...]:
    """The interned vector of length ``n`` with ``v`` in slot ``i`` and 0 elsewhere."""
    return _intern((0,) * i + (v,) + (0,) * (n - i - 1))


def _add_product(acc: dict, a: dict, b: dict, c=1) -> None:
    """``acc += c * a * b`` in place, the one multiply-accumulate loop; fastest with the smaller ``b``."""
    get, rows = acc.get, _SHIFTS.get
    for e2, c2 in b.items():
        c2 *= c
        row = rows(e2)
        if row is None:
            row = _shift_row(e2)
        shifted = row.get
        for e1, c1 in a.items():
            e = shifted(e1)
            if e is None:
                e = _shift_miss(row, e1, e2)
            s = get(e, 0) + c1 * c2
            if s:
                acc[e] = s if type(s) is int else _normal(s)
            else:
                del acc[e]  # c1 * c2 != 0, so e was present


def _constant_terms(c, rank: int) -> dict:
    """The term dict of the nonzero constant ``c``."""
    return {_intern((0,) * rank): c}


def _linear_coeffs(terms: dict, rank: int) -> list:
    """The coefficient vector of a linear form given by its term dict."""
    out = [0] * rank
    for e, c in terms.items():
        out[e.index(1)] = c
    return out


def _coeff(c) -> int | Fraction:
    """A user-supplied coefficient, type-checked, in normal form; ``bool``
    is refused, as it is for weights and exponents."""
    if isinstance(c, Fraction):
        return _normal(c)
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(c).__name__}")


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple; any entry whose type is not ``int`` (``bool``
    and ``float`` included) is rejected rather than truncated."""
    out = tuple(values)
    if any(type(v) is not int for v in out):
        raise ValueError(f"{what} must be integers, got {out!r}")
    return out


def _primes():
    """The primes 2, 3, 5, ... in order, without end."""
    n = 2
    while True:
        if all(n % p for p in range(2, isqrt(n) + 1)):
            yield n
        n += 1


def _normalize_mode(mode: str) -> str:
    m = str(mode).upper()
    if m not in ("Z", "Q"):
        raise ValueError(f"mode must be 'Z' or 'Q', got {mode!r}")
    return m


def _line_of(coeffs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``(content, direction)`` of the integer form ``coeffs``: the gcd of
    the entries and the form divided by it, signed so that its first
    nonzero entry is positive.  Two nonzero forms are parallel over Q
    exactly when their directions are equal.  The zero form gives ``(0,
    coeffs)``."""
    g = gcd(*coeffs)
    if not g:
        return 0, coeffs
    if next(c for c in coeffs if c) < 0:
        g = -g
    return abs(g), tuple(c // g for c in coeffs)


@dataclass(frozen=True)
class Weight:
    """An integer linear form ``c1*x1 + ... + ck*xk``.

    Weights are the degree-2 equivariant classes that label graph edges.
    The zero form is representable (so that arithmetic stays total) but is
    rejected by every operation that uses a weight as a divisor.  Its line
    -- content and primitive direction --, its division plan and its
    polynomial are cached properties, computed on first use (the
    polynomial is shared, as it is immutable); equality, hashing and
    ``repr`` see only ``coeffs``.

    >>> str(Weight((1, -2)))
    'x1 - 2*x2'
    >>> Weight((2, 4)).content()
    2
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _int_tuple(self.coeffs, "weight coefficients"))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @cached_property
    def _line(self) -> tuple[int, tuple[int, ...]]:
        """``(content, direction)``, as ``_line_of`` reads it from ``coeffs``."""
        return _line_of(self.coeffs)

    @cached_property
    def _plan(self) -> tuple:
        """The division plan, as ``_plan_of`` makes it from ``coeffs``."""
        return _plan_of(self.coeffs)

    def content(self) -> int:
        """gcd of the entries (0 for the zero form)."""
        return self._line[0]

    def proportional(self, other: "Weight") -> bool:
        """True when the two forms are parallel over Q (zero counts as parallel)."""
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("weights live in different tori")
        return self.is_zero() or other.is_zero() or self._line[1] == other._line[1]

    @cached_property
    def _polynomial(self) -> "Polynomial":
        n = len(self.coeffs)
        return Polynomial._make(n, {_unit(i, n): c for i, c in enumerate(self.coeffs) if c})

    def to_polynomial(self) -> "Polynomial":
        return self._polynomial

    def __str__(self) -> str:
        """The text of ``str(self.to_polynomial())``, formatted from ``coeffs``."""
        parts = []
        for i, c in enumerate(self.coeffs, 1):
            if c:
                body = f"x{i}" if c in (1, -1) else f"{abs(c)}*x{i}"
                sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
                parts.append(sign + body)
        return " ".join(parts) or "0"


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent vectors to nonzero coefficients, each an ``int``
    when integral and a :class:`fractions.Fraction` otherwise, so two equal
    polynomials have equal ``terms``.  The constructor checks and normalizes
    its input; results of the ring operations and of the parser are built
    in normal form and skip those checks.  Instances are immutable by convention: no method
    mutates ``terms`` after construction, so values may be shared freely
    across threads.  The keys are plain tuples; those made by the kernels,
    the parser and the constant and weight constructors are interned (see
    the module docstring), which changes no equality or hash.  The tables
    behind that need no lock: each dict read or write is atomic, and two
    threads that miss on the same pair store equal tuples.

    >>> x = Polynomial.variable(0, 2)
    >>> y = Polynomial.variable(1, 2)
    >>> str((x - y) * (x + y))
    'x1^2 - x2^2'
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if type(nvars) is not int:
            raise ValueError(f"nvars must be an integer, got {nvars!r}")
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in (terms or {}).items():
            c = _coeff(c)
            if c == 0:
                continue
            exps = _int_tuple(exps, "exponents")
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has length != {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = c
        _set_nvars(self, nvars)
        _set_terms(self, clean)

    @classmethod
    def _make(cls, nvars: int, terms: dict) -> "Polynomial":
        """Unchecked constructor: ``terms`` must already be in normal form
        (valid exponent vectors, no zero, no integral ``Fraction``)."""
        p = object.__new__(cls)
        _set_nvars(p, nvars)
        _set_terms(p, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls(nvars, {_unit(index, nvars): 1})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        """Zero counts as homogeneous of every degree."""
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1 and (d is None or degs <= {d})

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.nvars, 0)

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms in descending graded-lexicographic order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_grlex_key, reverse=True)]

    # -- arithmetic -------------------------------------------------------

    def _operand(self, other):
        """``other`` as a polynomial in this ring, or None for a foreign type."""
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.nvars)
        if not isinstance(other, Polynomial):
            return None
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")
        return other

    def _combine(self, other, sign) -> "Polynomial":
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_multiple(out, other.terms, sign)
        return Polynomial._make(self.nvars, out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out: dict[tuple[int, ...], int | Fraction] = {}
        if type(other) is not Polynomial:  # the common case skips both tests
            if isinstance(other, (int, Fraction)):
                other = _coeff(other)
                if other:
                    _add_multiple(out, self.terms, other)
                return Polynomial._make(self.nvars, out)
            other = self._operand(other)
            if other is None:
                return NotImplemented
        elif self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")
        _add_product(out, self.terms, other.terms)
        return Polynomial._make(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# the slots' own setters, which pass over the refusing __setattr__
_set_nvars, _set_terms = Polynomial.nvars.__set__, Polynomial.terms.__set__


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, in descending lex order.

    >>> monomials(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    """
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


# -- division by a linear form -------------------------------------------


def divide_by_weight(p: Polynomial, w: Weight) -> Polynomial:
    """Exact quotient ``p / w`` for a nonzero linear form ``w``.

    Long division with respect to the first variable carrying a nonzero
    coefficient in ``w``; the remainder is free of that variable and must
    vanish for divisibility, which is equivalent to substituting the
    solution of ``w = 0`` into ``p``.

    Raises :class:`NotDivisibleError` when ``w`` does not divide ``p`` and
    :class:`ZeroWeightError` for the zero form.

    >>> x = Polynomial.variable(0, 2); y = Polynomial.variable(1, 2)
    >>> str(divide_by_weight(x * x - y * y, Weight((1, -1))))
    'x1 + x2'
    """
    if w.is_zero():
        raise ZeroWeightError("cannot divide by the zero weight")
    if p.nvars != w.rank:
        raise ValueError("polynomial and weight live in different rings")
    quot, rem = _divmod_weight(p.terms, w)
    if rem:
        raise NotDivisibleError(f"{w} does not divide {p}")
    return Polynomial._make(p.nvars, quot)


def _unit_rows(n: int) -> tuple[tuple, ...]:
    """Per slot ``i`` of rank ``n``, ``(-e_i, row of -e_i, +e_i, row of +e_i)``,
    made on the rank's first use."""
    units = _UNITS.get(n)
    if units is None:
        units = _UNITS[n] = tuple(
            (down, _shift_row(down), up, _shift_row(up))
            for down, up in ((_unit(i, n, -1), _unit(i, n)) for i in range(n))
        )
    return units


def _plan_of(coeffs: tuple[int, ...]) -> tuple:
    """``(j, c_j, -e_j, row of -e_j, others)`` for division by the nonzero
    integer form ``coeffs``: ``x_j`` is its first variable with a nonzero
    coefficient ``c_j``, and ``others`` holds ``(w_i, row of +e_i, e_i)``
    for each other nonzero ``w_i``.  The vectors and rows are the rank's
    ``_unit_rows``."""
    units = _unit_rows(len(coeffs))
    cj = next(filter(None, coeffs))
    j = coeffs.index(cj)
    others = tuple((wi, units[i][3], units[i][2]) for i, wi in enumerate(coeffs) if wi and i != j)
    return j, cj, units[j][0], units[j][1], others


def _divmod_weight(terms, w: Weight):
    """``_divmod_plan`` by the plan stored on ``w``."""
    return _divmod_plan(terms, w._plan)


def _divmod_plan(terms, plan: tuple):
    """``(quotient, remainder)`` of the given terms by the form ``w`` whose
    plan (see ``_plan_of``) is given, as term dicts.

    The terms are bucketed once by their power of ``x_j``, the first variable
    with a nonzero coefficient ``c_j`` in ``w``, and the buckets are walked
    from the top power down to 1: a term ``c*x^e`` at power ``k`` gives the
    quotient term ``(c/c_j)*x^(e-e_j)`` and pushes ``-(c/c_j)*w_i*x^(e-e_j+e_i)``
    into power ``k-1`` for each other nonzero ``w_i``.  Power 0 is the
    remainder, free of ``x_j``: the restriction to the hyperplane ``w = 0``.
    Both are in coefficient normal form when ``terms`` is; ``terms`` is kept.
    The vectors ``e-e_j`` and ``e-e_j+e_i`` are read from the shift rows of
    ``-e_j`` and ``+e_i``, which the plan holds.  A form with no other
    nonzero coefficient pushes nothing down, so its division is a shift:
    each term holding ``x_j`` loses one power of it, and the rest is the
    remainder, with no walk over the powers between.
    """
    j, cj, down, drow, others = plan
    if not others:
        quot, rem = {}, {}
        for e, c in terms.items():
            if not e[j]:
                rem[e] = c
                continue
            qe = drow.get(e)
            if qe is None:
                qe = _shift_miss(drow, e, down)
            quot[qe] = c // cj if type(c) is int and c % cj == 0 else Fraction(c, cj)
        return quot, rem
    levels: dict[int, dict] = {}  # power of x_j -> terms
    for e, c in terms.items():
        levels.setdefault(e[j], {})[e] = c
    quot = {}
    for k in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(k - 1, {})
        for e, c in levels.pop(k, {}).items():
            qe = drow.get(e)
            if qe is None:
                qe = _shift_miss(drow, e, down)
            # c / cj is integral only if c is an int that cj divides
            qc = quot[qe] = c // cj if type(c) is int and c % cj == 0 else Fraction(c, cj)
            for wi, row, up in others:
                t = row.get(qe)
                if t is None:
                    t = _shift_miss(row, qe, up)
                s = below.get(t, 0) - qc * wi
                if not s:
                    del below[t]  # qc * wi != 0, so t was present
                else:
                    below[t] = s if type(s) is int else _normal(s)
    return quot, levels.get(0, {})


def _divide_exact(terms, divisor: dict):
    """The quotient of ``terms`` by the nonzero polynomial ``divisor``, as a
    term dict, when it divides exactly; otherwise None.  ``terms`` is kept.

    Long division in lex order: each step divides the remainder's lead term
    ``m`` by the divisor's, ``lt``, and subtracts that quotient term times
    the divisor with ``_add_product``.  The division is exact when the
    remainder runs out before a lead term that ``lt`` does not divide.
    The quotient vector ``q = m - lt`` is read from the shift row of
    ``-lt`` and each ``q + x``, ``x`` a vector of the divisor, from the row
    of ``q``, so a step makes no tuple but on a row's first miss.  A row
    holds only exponent vectors, none negative, so a hit in the row of
    ``-lt`` is a quotient vector.
    """
    top = max(divisor)
    lc, back = divisor[top], tuple([-a for a in top])
    brow, rem, quot = _shift_row(back), dict(terms), {}
    while rem:
        m = max(rem)
        qe = brow.get(m)
        if qe is None:
            if any(map(lt, m, top)):
                return None
            qe = _shift_miss(brow, m, back)
        qc = quot[qe] = _quo(rem[m], lc)
        _add_product(rem, divisor, {qe: qc}, -1)
    return quot


def pairwise_coprime(weights) -> bool:
    """Pairwise coprimality of nonzero linear forms in Q[x1..xk].

    That is non-collinearity of every pair.  Each weight's cached line
    gives its primitive direction, so the forms are non-collinear exactly
    when their directions are distinct: one pass, not a test per pair.
    """
    ws = list(weights)
    for w in ws:
        if w.is_zero():
            raise ZeroWeightError("coprimality is undefined for the zero weight")
    if len({w.rank for w in ws}) > 1:
        raise ValueError("weights live in different tori")
    return len({w._line[1] for w in ws}) == len(ws)


# -- congruence solving ----------------------------------------------------


def solve_congruences(constraints, degree: int, mode: str = "Q") -> Polynomial:
    """Unique homogeneous ``h`` of the given degree with ``h == p_i (mod a_i)``.

    ``constraints`` is a list of (Weight, Polynomial) pairs with pairwise
    coprime weights and each polynomial zero or homogeneous of ``degree``.
    ``h`` is lifted one modulus at a time (Newton's form of the Chinese
    remainder theorem).  From ``h = p_1``, each ``a_k`` takes the remainder
    ``r`` of ``p_k - h`` modulo ``a_k`` (its restriction to ``a_k = 0``),
    divides it there by each earlier ``a_i`` -- on ``a_k = 0`` that is the
    integer form ``c*a_i - a_i[j]*a_k`` over ``c = a_k[j]``, the first
    nonzero entry of ``a_k`` -- and adds ``(a_1 ... a_{k-1}) * r`` to ``h``.
    After ``degree + 1`` moduli ``h`` is unique, so each later ``r`` must be
    zero.  A failed division or a nonzero late ``r`` raises
    :class:`NoSolutionError`; with at most ``degree`` moduli, solutions
    differ by multiples of their product and :class:`NonUniqueError`
    reports the dimension of that space.  In Z-mode a solution with a
    non-integer coefficient is the witness of :class:`NonIntegralError`.

    >>> x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    >>> str(solve_congruences([(Weight((1, 0)), x2), (Weight((0, 1)), x1)], 1))
    'x1 + x2'
    """
    mode = _normalize_mode(mode)
    constraints = list(constraints)
    if not constraints:
        raise ValueError("at least one congruence is required")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    nvars = constraints[0][0].rank
    for w, p in constraints:
        if w.is_zero():
            raise ZeroWeightError("congruence modulus must be nonzero")
        if w.rank != nvars or p.nvars != nvars:
            raise ValueError("mixed ranks in congruence system")
        if not p.is_homogeneous(degree):
            raise ValueError(f"residue {p} is not homogeneous of degree {degree}")
    if not pairwise_coprime([w for w, _ in constraints]):
        raise ValueError("congruence moduli must be pairwise coprime")

    h = constraints[0][1]
    prod = Polynomial.one(nvars)  # the product of the moduli that h meets
    for k, (ak, pk) in enumerate(constraints[1:], 1):
        if k <= degree:
            prod = prod * constraints[k - 1][0].to_polynomial()
        r = _divmod_weight((pk - h).terms, ak)[1]
        if not r:
            continue
        if k > degree:
            raise NoSolutionError("congruence system has no homogeneous solution")
        j, c = ak._plan[:2]
        for ai, _ in constraints[:k]:
            b = tuple([c * x - ai.coeffs[j] * y for x, y in zip(ai.coeffs, ak.coeffs)])
            r, rem = _divmod_plan(r, _plan_of(b))
            if rem:
                raise NoSolutionError("congruence system has no homogeneous solution")
        h = h + prod * Polynomial._make(nvars, r) * c**k
    if len(constraints) <= degree:  # h + (a_1 ... a_m) * q solves for every q
        raise NonUniqueError(
            f"congruence system underdetermined in degree {degree}",
            dimension=comb(degree - len(constraints) + nvars - 1, nvars - 1),
        )
    if mode == "Z" and not h.is_integral():
        raise NonIntegralError(f"solution {h} is not integral", witness=h)
    return h


# -- parsing ----------------------------------------------------------------

_FACTOR = r"x[0-9]+(?:\s*\^\s*[0-9]+)?|[0-9]+(?:/[0-9]+)?"
_TERM = rf"(?:{_FACTOR})(?:\s*\*\s*(?:{_FACTOR}))*"
# terms joined by runs of signs and whitespace holding at least one sign
_POLYNOMIAL = re.compile(rf"[\s+-]*{_TERM}(?:\s*[+-][\s+-]*{_TERM})*\s*")
_SIGNED_TERM = re.compile(rf"([\s+-]*)({_TERM})")
_FACTORS = re.compile(r"x([0-9]+)(?:\s*\^\s*([0-9]+))?|([0-9]+)(?:/([0-9]+))?")


def parse_polynomial(text: str, nvars: int, cache: dict | None = None) -> Polynomial:
    """Read a polynomial in ``x1 .. x<nvars>`` from the text ``str(Polynomial)`` writes.

    The accepted grammar, with any whitespace before, after and between
    tokens but none inside ``x<i>`` or ``<n>/<d>``::

        polynomial := sign* term (sign+ term)*
        term       := factor ("*" factor)*
        factor     := "x" digits ("^" digits)? | digits ("/" digits)?
        sign       := "+" | "-"

    Digits are the ASCII digits ``0-9``.  A term's sign is the parity of
    its minus signs, factors multiply and equal monomials add up.  A
    malformed text, a variable outside ``x1 .. x<nvars>``, a zero
    denominator and a number of more digits than ``int`` reads raise
    :class:`PolynomialParseError`; for a malformed text it quotes at most
    80 characters around the offset where the grammar stops matching.

    Each term text is read into ``(interned exponent vector, coefficient)``
    through ``cache``, a dict that the caller may share between the texts
    of one rank (one load) so that each distinct term is read once; the
    terms are summed straight into normal form.

    >>> str(parse_polynomial("3*x1^2*x2 - x3", 3))
    '3*x1^2*x2 - x3'
    """
    m = _POLYNOMIAL.match(text)
    if m is None or m.end() < len(text):
        at = m.end() if m else 0
        raise PolynomialParseError(
            f"malformed polynomial text at offset {at} of {len(text)}: {text[max(0, at - 40):at + 40]!r}"
        )
    if cache is None:
        cache = {}
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for signs, term in _SIGNED_TERM.findall(text):
        read = cache.get(term)
        if read is None:
            read = cache[term] = _read_term(term, nvars)
        e, c = read
        if signs.count("-") % 2:
            c = -c
        s = terms.get(e)
        terms[e] = c if s is None else s + c
    return Polynomial._make(nvars, {e: c if type(c) is int else _normal(c) for e, c in terms.items() if c})


def _read_term(term: str, nvars: int) -> tuple[tuple[int, ...], int | Fraction]:
    """The interned exponent vector and the coefficient, in normal form, of
    one unsigned term text that the grammar matched.  Errors quote at most
    40 characters of it."""
    coeff = 1
    exps = [0] * nvars
    try:
        for var, power, num, den in _FACTORS.findall(term):
            if var:
                i = int(var) - 1
                if not 0 <= i < nvars:
                    raise PolynomialParseError(f"variable x{var[:40]} out of range for rank {nvars}")
                exps[i] += int(power) if power else 1
            elif not den:
                coeff *= int(num)
            elif int(den):
                coeff *= Fraction(int(num), int(den))
            else:
                raise PolynomialParseError(f"zero denominator in {(num + '/' + den)[:40]!r}")
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise PolynomialParseError(
            f"a number in the term {term[:40]!r} of {len(term)} characters has too many digits"
        ) from None
    return _intern(tuple(exps)), coeff if type(coeff) is int else _normal(coeff)
