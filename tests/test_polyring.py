"""Ring arithmetic, division by linear forms, and congruence solving."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmcalc import polyring
from gkmcalc.errors import (
    NoSolutionError,
    NonIntegralError,
    NonUniqueError,
    NotDivisibleError,
    PolynomialParseError,
    ZeroWeightError,
)
from gkmcalc.polyring import (
    Polynomial,
    Weight,
    _add_multiple,
    _add_product,
    _divide_exact,
    _divmod_plan,
    _divmod_weight,
    _line_of,
    _linear_coeffs,
    _plan_of,
    _quo,
    divide_by_weight,
    monomials,
    pairwise_coprime,
    parse_polynomial,
    solve_congruences,
)
from gkmcalc.oracle import nullspace_basis

X = Polynomial.variable(0, 2)
Y = Polynomial.variable(1, 2)


class _InconsistentSystem(Exception):
    """``solve_linear_system`` was given a system with no solution."""


def solve_linear_system(rows, rhs):
    """Solve ``rows * x = rhs`` exactly over Q by Gauss-Jordan elimination.

    The tests' reference solver, independent of ``polyring``.  Returns
    ``(particular, nullspace)``: the solution whose free variables are 0,
    and a basis of the homogeneous solutions, one vector per free column.
    Raises ``_InconsistentSystem`` when there is no solution.
    """
    ncols = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols + 1):
        r = len(pivots)
        src = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if src is None:
            continue
        if col == ncols:
            raise _InconsistentSystem()
        pv = aug[src][col]
        aug[r], aug[src] = aug[src], aug[r]
        pivot = aug[r] = [v / pv for v in aug[r]]
        for i, row in enumerate(aug):
            if i != r and row[col]:
                aug[i] = [a - row[col] * b for a, b in zip(row, pivot)]
        pivots.append(col)
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][ncols]
    null = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fc]
        null.append(vec)
    return particular, null


def _random_poly(rng, nvars, max_deg):
    terms = {}
    for d in range(max_deg + 1):
        for m in monomials(nvars, d):
            if rng.random() < 0.4:
                terms[m] = Fraction(rng.randrange(-5, 6), rng.choice((1, 1, 2, 3)))
    return Polynomial(nvars, terms)


def _random_weight(rng, nvars):
    while True:
        w = Weight(tuple(rng.randrange(-4, 5) for _ in range(nvars)))
        if not w.is_zero():
            return w


def test_mul_square():
    assert X * X == Polynomial(2, {(2, 0): 1})


def test_add_zero_is_identity():
    p = 3 * X + Y
    assert p + Polynomial.zero(2) == p


def test_difference_of_squares():
    assert (X - Y) * (X + Y) == X * X - Y * Y


def test_scale_exact():
    assert Fraction(1, 3) * (3 * X) == X


def test_canonical_form_never_stores_zero():
    assert ((X + Y) + (-X - Y)).terms == {}
    prod = (X + Y) * (X - Y)
    assert all(c != 0 for c in prod.terms.values())


def test_grlex_printing_is_deterministic():
    p = parse_polynomial("x2 + x1 + x1^2", 2)
    assert str(p) == "x1^2 + x1 + x2"
    assert str(Polynomial.zero(2)) == "0"
    assert str(-X) == "-x1"


def test_weight_basics():
    w = Weight((2, 4))
    assert w._line == (2, (1, 2))
    assert Weight((1, -1))._line[0] == 1
    assert Weight((0, 0)).is_zero()
    assert str(Weight((1, -2))) == "x1 - 2*x2"


def test_weight_rejects_non_integers():
    for bad in ((1.5, 0), (True, 0), (Fraction(1), 0), ("1", 0)):
        with pytest.raises(ValueError, match=re.escape(f"weight coefficients must be ints, not {bad!r}")):
            Weight(bad)
        # the same entries as exponents of a polynomial term
        with pytest.raises(ValueError, match=re.escape(f"exponents must be ints, not {bad!r}")):
            Polynomial(2, {bad: 1})
    assert Weight([1, 0]).coeffs == (1, 0)
    for bad in (2.7, True, "2", Fraction(2)):
        with pytest.raises(ValueError, match=re.escape(f"nvars must be an int, not {bad!r}")):
            Polynomial(bad, {})
    assert Polynomial(2, {(1, 0): 1}) == X


def test_coefficients_reject_bool():
    for bad in (True, False, 1.0, "1"):
        with pytest.raises(TypeError, match="int or Fraction coefficient"):
            Polynomial(2, {(1, 0): bad})
        with pytest.raises(TypeError, match="int or Fraction coefficient"):
            Polynomial.constant(bad, 2)
    for bad in (True, False):
        with pytest.raises(TypeError, match="int or Fraction coefficient"):
            X * bad
        with pytest.raises(TypeError, match="int or Fraction coefficient"):
            bad * X
        with pytest.raises(TypeError, match="int or Fraction coefficient"):
            X + bad
    assert Polynomial(2, {(1, 0): 1}) * 1 == X


@given(st.integers(0, 4).flatmap(lambda k: st.tuples(*[st.integers(-12, 12)] * k)))
def test_weight_text_is_its_polynomial_text(coeffs):
    w = Weight(coeffs)
    assert str(w) == str(w.to_polynomial())


def test_homogeneity_helpers():
    assert (X * Y).is_homogeneous(2)
    assert not (X + Polynomial.one(2)).is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous(7)


def test_divide_difference_of_squares():
    q = divide_by_weight(X * X - Y * Y, Weight((1, -1)))
    assert q == X + Y


def test_divide_zero_polynomial():
    assert divide_by_weight(Polynomial.zero(2), Weight((3, 5))).is_zero()


def test_divide_not_divisible():
    with pytest.raises(NotDivisibleError):
        divide_by_weight(X, Weight((0, 1)))


def test_divide_zero_weight_rejected():
    with pytest.raises(ZeroWeightError):
        divide_by_weight(X, Weight((0, 0)))


def _run_bounded(code: str) -> str:
    """Run ``code`` in a fresh interpreter, killed after 20 s, and return
    its standard output: a division that walked every power of a huge
    exponent would not end."""
    src = str(Path(polyring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_divide_by_one_coefficient_weight_is_a_shift():
    # x1^(10**30) / x1 in a peak of a few kilobytes, not a walk over 10**30 powers
    out = _run_bounded(
        "import tracemalloc\n"
        "from gkmcalc.polyring import Polynomial, Weight, divide_by_weight\n"
        "p = Polynomial(1, {(10**30,): 3})\n"
        "tracemalloc.start()\n"
        "q = divide_by_weight(p, Weight((1,)))\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "assert q == Polynomial(1, {(10**30 - 1,): 3}), q\n"
        "print(peak)\n"
    )
    assert int(out) < 64 * 1024
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    p = x * x * y + x * 3 - y * y
    quot, rem = _divmod_plan(p.terms, Weight((0, 2))._plan)
    assert Polynomial(2, quot) == x * x * Fraction(1, 2) - y * Fraction(1, 2)
    assert Polynomial(2, rem) == x * 3


def test_divide_round_trip_random():
    rng = random.Random(20240)
    for _ in range(200):
        nvars = rng.choice((2, 3))
        q = _random_poly(rng, nvars, 3)
        w = _random_weight(rng, nvars)
        assert divide_by_weight(q * w.to_polynomial(), w) == q


def test_pairwise_coprime_examples():
    x, y = Weight((1, 0)), Weight((0, 1))
    assert pairwise_coprime([x, y])
    assert not pairwise_coprime([x, Weight((2, 0))])
    assert not pairwise_coprime([Weight((1, -1)), Weight((-3, 3))])
    # coprimality is over Q: an imprimitive weight is coprime to y
    assert pairwise_coprime([Weight((2, 0)), y])
    with pytest.raises(ZeroWeightError):
        pairwise_coprime([x, Weight((0, 0))])


def test_pairwise_coprime_needs_one_torus():
    for ws in ([Weight((2, 0)), Weight((1, 0, 0))], [Weight((1,)), Weight((0, 1))]):
        with pytest.raises(ValueError, match="different tori"):
            pairwise_coprime(ws)


@st.composite
def _weight_lists(draw):
    """Nonzero weights of one rank, with scaled copies (negative multiples
    included) of some of them mixed in, so that collinear pairs are common."""
    k = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-4, 4)] * k).filter(any)
    ws = draw(st.lists(vectors, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        base = draw(st.sampled_from(ws))
        factor = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        ws.append(tuple(factor * c for c in base))
    return [Weight(w) for w in draw(st.permutations(ws))]


def _parallel(a, b):
    """Parallelism over Q by definition: every 2x2 minor of the rows ``a``, ``b`` vanishes."""
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


@given(_weight_lists())
def test_pairwise_coprime_matches_all_pairs(ws):
    # the definition over Q: no two weights parallel, whatever their content
    expected = not any(_parallel(a.coeffs, b.coeffs) for i, a in enumerate(ws) for b in ws[i + 1:])
    assert pairwise_coprime(ws) == expected


@st.composite
def _weight_pairs(draw):
    """Two forms of one rank 1-4, zero included; the second is often a
    rational multiple of the first, so that parallel pairs are common."""
    k = draw(st.integers(1, 4))
    a = draw(st.tuples(*[st.integers(-6, 6)] * k))
    if draw(st.booleans()):
        b = draw(st.tuples(*[st.integers(-6, 6)] * k))
    else:
        g = gcd(*a) or 1
        b = tuple(draw(st.sampled_from((-3, -1, 0, 1, 2))) * c // g for c in a)
    return Weight(a), Weight(b)


@given(_weight_pairs())
def test_proportional_matches_the_minors(pair):
    a, b = pair
    assert a.proportional(b) == b.proportional(a) == _parallel(a.coeffs, b.coeffs)


def test_proportional_needs_one_torus():
    with pytest.raises(ValueError, match="different tori"):
        Weight((1, 0)).proportional(Weight((1, 0, 0)))
    with pytest.raises(ValueError, match="different tori"):
        Weight((0,)).proportional(Weight((0, 0)))


def test_weight_line_is_cached_and_invisible():
    # the line is stored on the one record of the form, which is immutable
    w = Weight((-2, 4, 0))
    assert w._line == (2, (1, -2, 0))
    assert Weight([-2, 4, 0]) is w and polyring._WEIGHTS[(-2, 4, 0)] is w
    assert not hasattr(w, "__dict__")
    for name in ("coeffs", "_line", "_plan", "_polynomial", "_text", "extra"):
        with pytest.raises(AttributeError):
            setattr(w, name, None)
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert w._line == (2, (1, -2, 0)) and w.coeffs == (-2, 4, 0)
    other = Weight((-2, 4, 0))
    assert w == other and hash(w) == hash(other) and repr(w) == repr(other) == "Weight(coeffs=(-2, 4, 0))"
    assert Weight((0, 0))._line == (0, (0, 0)) and Weight((0, 0))._plan is None


def _ref_weight_text(c):
    """The text of the integer form ``c``, term by term from its entries."""
    parts = []
    for i, x in enumerate(c, 1):
        if x:
            body = f"x{i}" if x in (1, -1) else f"{abs(x)}*x{i}"
            parts.append((("- " if x < 0 else "+ ") if parts else ("-" if x < 0 else "")) + body)
    return " ".join(parts) or "0"


_FORMS = st.lists(st.integers(-4, 4), max_size=4).map(tuple)


@given(_FORMS, _FORMS)
@example((), ())
@example((0, 0), (0, 0, 0))
@example((1, -2), (-1, 2))
def test_weight_is_interned_with_its_line_plan_polynomial_and_text(c, d):
    w = Weight(c)
    assert Weight(list(c)) is w and polyring._WEIGHTS[c] is w and w.coeffs == c
    # equality, hash, repr and str as a frozen dataclass over coeffs gave them
    assert (w == Weight(d)) == (c == d) and (w != Weight(d)) == (c != d)
    assert w != c and w != Polynomial.zero(len(c))
    assert hash(w) == hash((w.coeffs,))
    assert repr(w) == f"Weight(coeffs={c!r})"
    assert str(w) == _ref_weight_text(c)
    # each derived value equals a fresh one
    assert w._line == _line_of(c)
    assert w._plan == (_plan_of(c) if any(c) else None)
    ref = Polynomial(len(c), {tuple(int(i == k) for i in range(len(c))): x for k, x in enumerate(c)})
    assert w.to_polynomial() == ref and w.to_polynomial() is w.to_polynomial()
    assert str(w) == str(ref)
    assert copy.copy(w) is w and copy.deepcopy(w) is w and pickle.loads(pickle.dumps(w)) is w


def test_weight_refusals_survive_a_warm_table():
    # (True, 0), (1.0, 0) and (Fraction(1), 0) equal (1, 0) as dict keys:
    # the type check runs before the table is read
    assert Weight((1, 0)) is Weight((1, 0)) and Weight((0, 0)).is_zero()
    for bad in ((True, 0), (1.0, 0), (Fraction(1), 0), (False, 0), (0.0, 0)):
        with pytest.raises(ValueError, match=re.escape(f"weight coefficients must be ints, not {bad!r}")):
            Weight(bad)
    assert all(type(x) is int for key in polyring._WEIGHTS for x in key)  # no key of another type


@st.composite
def _matrices(draw):
    """An integer matrix with 0-6 rows and 1-5 columns; up to two rows are
    sums of two others, so that rank deficiency is common."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=4))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), [x + y for x, y in zip(a, b)])
    return rows, ncols


@given(_matrices())
def test_nullspace_basis_is_a_kernel_basis(case):
    rows, ncols = case
    null = nullspace_basis(rows, ncols)
    assert all(len(vec) == ncols for vec in null)
    for vec in null:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    if not rows:
        assert null == [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
        return
    # ncols - rank vectors, by the reference elimination ...
    assert len(null) == len(solve_linear_system(rows, [0] * len(rows))[1])
    # ... and no nontrivial combination of them vanishes
    if null:
        assert not solve_linear_system([list(col) for col in zip(*null)], [0] * ncols)[1]


def test_solve_zero_residues():
    h = solve_congruences([(Weight((1, 0)), Polynomial.zero(2)), (Weight((0, 1)), Polynomial.zero(2))], 1)
    assert h.is_zero()


def test_solve_derived_example_x():
    h = solve_congruences([(Weight((1, -1)), X), (Weight((1, 1)), X)], 1)
    assert h == X


def test_solve_derived_example_x_plus_y_against_grid_search():
    h = solve_congruences([(Weight((1, 0)), Y), (Weight((0, 1)), X)], 1)
    assert h == X + Y
    # independent brute check: scan small integer candidates for solutions
    hits = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            cand = a * X + b * Y
            try:
                divide_by_weight(cand - Y, Weight((1, 0)))
                divide_by_weight(cand - X, Weight((0, 1)))
            except NotDivisibleError:
                continue
            hits.append(cand)
    assert hits == [X + Y]


def test_solve_no_solution_in_degree_zero():
    with pytest.raises(NoSolutionError):
        solve_congruences(
            [(Weight((1, 0)), Polynomial.zero(2)), (Weight((0, 1)), Polynomial.one(2))], 0
        )


def test_solve_underdetermined_reports_dimension():
    with pytest.raises(NonUniqueError) as err:
        solve_congruences([(Weight((1, 0)), Y)], 1)
    assert err.value.dimension == 1


def test_solve_non_integral_witness():
    constraints = [(Weight((2, -1)), Polynomial.zero(2)), (Weight((0, 1)), X)]
    h = solve_congruences(constraints, 1, "Q")
    assert h == X - Fraction(1, 2) * Y
    with pytest.raises(NonIntegralError) as err:
        solve_congruences(constraints, 1, "Z")
    assert err.value.witness == h


def test_solver_reproduces_low_degree_residues():
    # when deg p < number of constraints, p is recovered from its residues
    rng = random.Random(7)
    for _ in range(50):
        d = rng.choice((0, 1))
        p = Polynomial(2, {m: rng.randrange(-4, 5) for m in monomials(2, d)})
        a1, a2 = Weight((1, 0)), Weight((rng.randrange(1, 4), rng.randrange(1, 4)))
        if a1.proportional(a2):
            continue
        h = solve_congruences([(a1, p), (a2, p)], d)
        assert h == p


def test_solution_satisfies_all_congruences():
    constraints = [(Weight((1, -1)), X), (Weight((1, 1)), X), (Weight((0, 1)), X)]
    h = solve_congruences(constraints, 1)
    for w, p in constraints:
        divide_by_weight(h - p, w)  # must not raise


def _direction(coeffs):
    """Canonical representative of the line through a nonzero vector."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    sign = 1 if next(c for c in coeffs if c) > 0 else -1
    return tuple(sign * c // g for c in coeffs)


@st.composite
def _forced_congruences(draw):
    """A system h == p_i (mod a_i) with p_i = h0 + a_i * g_i over pairwise
    non-collinear weights a_i, in rank 1-3 and degree 0-3."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    vectors = st.tuples(*[st.integers(-3, 3)] * k).filter(any)
    ws = draw(st.lists(vectors, min_size=1, max_size=1 if k == 1 else 4, unique_by=_direction))

    def poly(deg):
        coeff = st.fractions(-3, 3, max_denominator=3)
        return Polynomial(k, {m: draw(coeff) for m in monomials(k, deg)})

    h0 = poly(d)
    constraints = [(Weight(w), h0 + Weight(w).to_polynomial() * poly(d - 1)) for w in ws]
    return k, d, h0, constraints


@settings(deadline=None)
@given(_forced_congruences())
def test_solve_congruences_property(system):
    k, d, h0, constraints = system
    m = len(constraints)
    if m > d:
        h = solve_congruences(constraints, d)
        assert h == h0
        for w, p in constraints:
            divide_by_weight(h - p, w)  # must not raise
    else:
        # solutions are h0 + (a_1 ... a_m) * q for any q of degree d - m
        with pytest.raises(NonUniqueError) as err:
            solve_congruences(constraints, d)
        assert err.value.dimension == comb(d - m + k - 1, k - 1)


def _witness_form_solution(k, d, constraints, mode):
    """What solve_congruences must give, from the witness form
    ``h - p_i = a_i * g_i``: one exact linear system whose unknowns are the
    coefficients of ``h`` and of every ``g_i``.  Returns the expected error
    type, or None, with the expected dimension, witness or value."""
    mons_h, mons_g = monomials(k, d), monomials(k, d - 1)
    nh, ng = len(mons_h), len(mons_g)
    rows, rhs = [], []
    for i, (w, p) in enumerate(constraints):
        block = {t: [0] * (nh + len(constraints) * ng) for t in mons_h}
        for col, t in enumerate(mons_h):
            block[t][col] = 1
        for col, m in enumerate(mons_g, nh + i * ng):
            for var, c in enumerate(w.coeffs):
                block[tuple(e + (j == var) for j, e in enumerate(m))][col] -= c
        for t in mons_h:
            rows.append(block[t])
            rhs.append(p.terms.get(t, 0))
    try:
        particular, null = solve_linear_system(rows, rhs)
    except _InconsistentSystem:
        return NoSolutionError, None
    if null:  # g_i is fixed by h, so this is the dimension of the h's
        return NonUniqueError, len(null)
    h = Polynomial(k, dict(zip(mons_h, particular)))
    if mode == "Z" and not h.is_integral():
        return NonIntegralError, h
    return None, h


@st.composite
def _arbitrary_congruences(draw):
    """A system over 1-5 pairwise non-collinear moduli in rank 1-3 and
    degree 0-3, in mode Z or Q.  Most draws take five moduli in rank 2 or 3,
    more than ``d + 1``, and residues drawn freely: such a system is almost
    always inconsistent.  One draw in four takes 1-5 moduli instead, and one
    in four forces the residues consistent as ``h0 + a_i * g_i``."""
    # hypothesis favours the ends of a range, so those pick the common case
    k = (2, 3, 1, 3, 2)[draw(st.integers(0, 4))]
    if k == 1:
        m = 1
    elif draw(st.integers(0, 3)) == 1:
        m = draw(st.integers(1, 5))
    else:
        m = 5
    d = draw(st.integers(0, 3))
    vectors = st.tuples(*[st.integers(-3, 3)] * k).filter(any)
    ws = draw(st.lists(vectors, min_size=m, max_size=m, unique_by=_direction))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))

    def poly(deg):
        return Polynomial(k, {e: draw(coeff) for e in monomials(k, deg)})

    if draw(st.integers(0, 3)) == 1:
        h0 = poly(d)
        residues = [h0 + Weight(w).to_polynomial() * poly(d - 1) for w in ws]
    else:
        residues = [poly(d) for _ in ws]
    return k, d, [(Weight(w), p) for w, p in zip(ws, residues)], draw(st.sampled_from("ZQ"))


@settings(deadline=None)
@given(_arbitrary_congruences())
def test_solve_congruences_matches_witness_form(system):
    k, d, constraints, mode = system
    kind, expected = _witness_form_solution(k, d, constraints, mode)
    if kind is None:
        assert solve_congruences(constraints, d, mode) == expected
        return
    with pytest.raises(kind) as err:
        solve_congruences(constraints, d, mode)
    if kind is NonUniqueError:
        assert err.value.dimension == expected
    if kind is NonIntegralError:
        assert err.value.witness == expected


@st.composite
def _sparse_polynomial(draw, k):
    """A polynomial in ``k`` variables with a few terms of degree <= 3 and
    rational coefficients, the zero polynomial included."""
    exponents = st.tuples(*[st.integers(0, 3)] * k)
    coeff = st.fractions(-50, 50, max_denominator=12)
    return Polynomial(k, draw(st.dictionaries(exponents, coeff, max_size=6)))


@st.composite
def _polynomial_and_weight(draw):
    k = draw(st.integers(1, 3))
    w = Weight(draw(st.tuples(*[st.integers(-4, 4)] * k).filter(any)))
    return k, draw(_sparse_polynomial(k)), w


@settings(deadline=None)
@given(_polynomial_and_weight())
def test_divide_by_weight_inverts_multiplication(case):
    k, p, w = case
    assert divide_by_weight(p * w.to_polynomial(), w) == p


@settings(deadline=None)
@given(_polynomial_and_weight(), st.data())
def test_divide_by_weight_rejects_nonzero_remainder(case, data):
    # r is free of the first variable that w involves, so r restricted to the
    # hyperplane w = 0 is r itself: p = q*w + r is divisible only if r == 0
    k, q, w = case
    pivot = next(i for i, c in enumerate(w.coeffs) if c)
    r = data.draw(_sparse_polynomial(k))
    r = Polynomial(k, {e: c for e, c in r.terms.items() if e[pivot] == 0})
    p = q * w.to_polynomial() + r
    # the remainder is a value in its own right (the congruence solve lifts it)
    assert _divmod_weight(p.terms, w) == (q.terms, r.terms)
    if r.is_zero():
        assert divide_by_weight(p, w) == q
    else:
        with pytest.raises(NotDivisibleError):
            divide_by_weight(p, w)


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), _sparse_polynomial(k))))
def test_parse_inverts_str(case):
    k, p = case
    assert parse_polynomial(str(p), k) == p


def test_parse_round_trip():
    samples = ["3*x1^2*x2 - x3", "0", "-x1 + x2", "1/2*x1*x3 + 7", "x1^4 - 2/3*x2^2"]
    for text in samples:
        p = parse_polynomial(text, 3)
        assert parse_polynomial(str(p), 3) == p
    assert str(parse_polynomial("3*x1^2*x2 - x3", 3)) == "3*x1^2*x2 - x3"


def test_parse_errors():
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x9", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 + ", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("2y + 1", 2)
    # juxtaposed factors or terms are not a sum, 1/0 is not a number, and a
    # product needs a factor after each '*'
    for text in ("3x1", "x1x2", "2 3", "x1 x2", "x1^2 3", "1/0", "x1 - 2/0*x2",
                 "x1*", "x1 *", "3*", "x1*+x2", "", " ", "x1^", "x1^x2", "x1^2/3"):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(text, 2)
    # digits are ASCII: Arabic-Indic and superscript digits are not read as numbers
    for text in ("x\u0661^\u0662 + \u0663", "x1^\u00b2", "\u0663*x1"):
        with pytest.raises(PolynomialParseError, match="offset"):
            parse_polynomial(text, 1)


def test_parse_rejects_a_long_text_at_its_last_token():
    # 50,000 valid terms and a dangling '*': a backtracking blow-up would hang here
    text = " + ".join(f"{i % 7 + 1}*x{i % 3 + 1}^{i % 5}" for i in range(50_000))
    assert parse_polynomial(text, 3).terms
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial(text + " *", 3)
    # the message quotes the text near where the grammar stops, not the whole text
    assert len(str(err.value)) < 300
    assert f"offset {len(text) + 1} of {len(text) + 2}" in str(err.value)
    with pytest.raises(PolynomialParseError):
        parse_polynomial(text + " + y", 3)


@pytest.mark.parametrize(
    "text",
    [
        "1" * 5000,  # a coefficient
        "x" + "1" * 5000,  # a variable index
        "x1^" + "1" * 5000,  # an exponent
        "1" * 5000 + "/2*x1",  # a numerator
        "x1 + 1/" + "1" * 5000,  # a denominator
    ],
    ids=["coefficient", "index", "exponent", "numerator", "denominator"],
)
def test_parse_refuses_a_long_digit_run(text):
    # int() reads at most 4,300 digits by default; the error is a parse error
    with pytest.raises(PolynomialParseError, match="too many digits") as err:
        parse_polynomial(text, 1)
    assert len(str(err.value)) < 300


@pytest.mark.parametrize(
    "text, match",
    [("x" + "9" * 4000, "out of range"), ("1/" + "0" * 4000, "zero denominator")],
    ids=["index", "denominator"],
)
def test_parse_errors_quote_a_bounded_part_of_a_long_term(text, match):
    # digit runs int() still reads: the message quotes at most 40 of them
    with pytest.raises(PolynomialParseError, match=match) as err:
        parse_polynomial(text, 2)
    assert len(str(err.value)) < 300


@st.composite
def _texts_of_one_rank(draw):
    """Texts of one rank with their values: polynomials as ``str`` writes
    them, sums that repeat a monomial and sums that cancel to zero."""
    k = draw(st.integers(1, 3))
    polys = draw(st.lists(_sparse_polynomial(k), min_size=1, max_size=4))
    cases = [(str(p), p) for p in polys]
    cases += [(f"{p} + {q}", p + q) for p, q in zip(polys, polys[1:])]
    cases += [(f"{p} + {-p}", Polynomial.zero(k)) for p in polys[:1]]
    return k, cases


@settings(deadline=None)
@given(_texts_of_one_rank())
@example((2, [("x1 - x1", Polynomial.zero(2)), ("1/2*x1 + 1/2*x1", X), ("0*x2 + 4/2", Polynomial.constant(2, 2))]))
def test_parsed_terms_are_in_normal_form(case):
    k, cases = case
    shared = {}
    for text, value in cases:
        alone = parse_polynomial(text, k)
        assert alone == value
        # no zero, no integral Fraction, and interned exponent vectors
        _assert_normal_terms(alone.terms, _ref_clean(value.terms))
        assert all(polyring._VECTORS.get(e) is e for e in alone.terms)
        # one term cache shared by the texts of one load reads the same values
        assert parse_polynomial(text, k, shared) == alone


_REFERENCE_TOKEN = re.compile(r"([+\-*^]|x[0-9]+|[0-9]+(?:/[0-9]+)?)|\s+|(.)")


def _reference_parse(text, nvars):
    """The tokenizer and recursive-descent parser that ``parse_polynomial``
    replaced, kept as the reference for its language.  It raises
    ``IndexError`` on a trailing ``*``, which counts as a rejection."""
    tokens = []
    for m in _REFERENCE_TOKEN.finditer(text):
        if m.group(2) is not None:
            raise PolynomialParseError(f"unexpected character {m.group(2)!r} in {text!r}")
        if m.group(1) is not None:
            tokens.append(m.group(1))
    if not tokens:
        raise PolynomialParseError("empty polynomial text")
    pos = 0
    terms = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def read_factor(exps):
        tok = take()
        if tok.startswith("x"):
            idx = int(tok[1:]) - 1
            if not 0 <= idx < nvars:
                raise PolynomialParseError(f"variable {tok} out of range for rank {nvars}")
            e = 1
            if peek() == "^":
                take()
                nxt = peek()
                if nxt is None or not nxt.isdigit():
                    raise PolynomialParseError("expected integer exponent after '^'")
                e = int(take())
            exps[idx] += e
            return None
        if tok[0].isdigit():
            num, _, den = tok.partition("/")
            if not den:
                return int(num)
            if int(den) == 0:
                raise PolynomialParseError(f"zero denominator in {tok!r}")
            return Fraction(int(num), int(den))
        raise PolynomialParseError(f"unexpected token {tok!r}")

    while pos < len(tokens):
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        if peek() is None:
            raise PolynomialParseError("dangling sign")
        coeff = 1
        exps = [0] * nvars
        while True:
            c = read_factor(exps)
            if c is not None:
                coeff *= c
            if peek() == "*":
                take()
                continue
            break
        if peek() not in (None, "+", "-"):
            raise PolynomialParseError(f"unexpected token {peek()!r} after a term in {text!r}")
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + sign * coeff
    return Polynomial(nvars, terms)


# the token alphabet: variables x0..x12 (x0 and those past the rank are out of
# range), digits, fractions, operators, whitespace, a stray letter and a
# non-ASCII digit
_ALPHABET = [f"x{i}" for i in range(13)] + list("0123456789") + [
    "1/2", "12/8", "3/0", "/", "^", "*", "+", "-", " ", "\t", "\n", "y", "\u0663"]
_SPACE = st.sampled_from(("", "", " ", "  ", "\t", "\n"))


@st.composite
def _near_polynomial_text(draw):
    """Signed terms of factors joined by '*', with whitespace between tokens,
    so that most texts are accepted; then a few tokens of the alphabet
    inserted anywhere, so that many are not."""
    factor = st.one_of(
        st.builds(lambda i, p: f"x{i}" + p, st.integers(0, 12), st.sampled_from(("", "^0", "^2", "^ 13"))),
        st.sampled_from(("0", "1", "7", "10", "1/2", "4/6", "0/5", "3/0", "\u0663")),
    )
    parts = []
    for k in range(draw(st.integers(1, 5))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=0 if k == 0 else 1, max_size=3))
        factors = draw(st.lists(factor, min_size=1, max_size=3))
        parts.append(draw(_SPACE).join(signs) + draw(_SPACE) + f"{draw(_SPACE)}*{draw(_SPACE)}".join(factors))
    text = draw(_SPACE).join(parts)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_ALPHABET)) + text[i:]
    return text


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_ALPHABET), max_size=12).map("".join), _near_polynomial_text()),
       st.integers(1, 12))
@example("x1*", 2)
@example("x1 *", 2)
@example("3*", 2)
@example("x1*+x2", 2)
@example("- -x2 ^ 3*1/2 + x1", 2)
@example("x\u0661^\u0662 + \u0663", 1)
def test_parse_matches_the_token_parser(text, nvars):
    try:
        want = _reference_parse(text, nvars)
    except (PolynomialParseError, IndexError):
        want = None
    try:
        got = parse_polynomial(text, nvars)
    except PolynomialParseError:
        got = None
    assert got == want


def test_monomials_order():
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 0) == [(0, 0, 0)]
    assert monomials(2, -1) == []
    assert monomials(0, 0) == [()] and monomials(0, 1) == []
    # every exponent vector of the degree, in descending lex order
    for nvars in range(6):
        for degree in range(6):
            want = [e for e in product(range(degree + 1), repeat=nvars) if sum(e) == degree]
            assert monomials(nvars, degree) == sorted(want, reverse=True)


def test_monomials_of_many_variables_need_no_recursion():
    # one frame per variable once ended in RecursionError at rank 2000
    assert monomials(2000, 0) == [(0,) * 2000]
    assert len(monomials(2000, 1)) == 2000 and monomials(2000, 1)[0] == (1,) + (0,) * 1999


# -- coefficient normal form -------------------------------------------------
# References below work on plain {exponents: Fraction} dicts, independently of
# Polynomial's own arithmetic.


def _ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref_clean(out)


def _assert_normal_terms(terms, expected):
    """No zero and no integral Fraction is stored, and ``terms`` equals ``expected``."""
    for c in terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    assert {e: Fraction(c) for e, c in terms.items()} == expected


def _assert_normal(p, expected):
    _assert_normal_terms(p.terms, expected)


_COEFF = st.one_of(
    st.integers(-30, 30),
    st.integers(-30, 30).map(Fraction),  # integral Fractions, denominator 1
    st.fractions(-30, 30, max_denominator=6),
)


@st.composite
def _normal_form_case(draw):
    k = draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * k), _COEFF, max_size=6)
    w = draw(st.tuples(*[st.integers(-4, 4)] * k).filter(any))
    return k, draw(terms), draw(terms), draw(_COEFF), w


@settings(deadline=None)
@given(_normal_form_case())
# long division by 2*x1 + 2*x2 leaves the integral remainder 3 - 1/2*2 on x1*x2
@example((2, {(1, 0): Fraction(1, 2), (0, 1): 1}, {}, 1, (2, 2)))
def test_coefficient_normal_form(case):
    k, a, b, scalar, w = case
    ra, rb = _ref_clean(a), _ref_clean(b)
    p, q = Polynomial(k, a), Polynomial(k, b)
    _assert_normal(p, ra)
    _assert_normal(p + q, _ref_add(ra, rb))
    _assert_normal(p - q, _ref_add(ra, rb, -1))
    _assert_normal(-p, _ref_add({}, ra, -1))
    _assert_normal(p * q, _ref_mul(ra, rb))
    _assert_normal(p * scalar, _ref_clean({e: c * scalar for e, c in ra.items()}))
    _assert_normal(scalar * p, _ref_clean({e: c * scalar for e, c in ra.items()}))
    rw = {tuple(int(i == j) for i in range(k)): Fraction(c) for j, c in enumerate(w) if c}
    _assert_normal(divide_by_weight(Polynomial(k, _ref_mul(ra, rw)), Weight(w)), ra)
    _assert_normal(parse_polynomial(str(p), k), ra)


# -- term-dict kernels ---------------------------------------------------------
# The references are the plain-dict helpers above; none goes through
# Polynomial arithmetic, which runs on these kernels.


def _normal_dict(terms):
    """A Fraction-valued dict in coefficient normal form."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in _ref_clean(terms).items()}


_SCALAR = st.sampled_from([1, -1, 3, Fraction(2, 3), Fraction(-5, 2)])


@st.composite
def _kernel_case(draw):
    k = draw(st.integers(1, 4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * k), _COEFF, max_size=5).map(_normal_dict)
    a, b, c = draw(terms), draw(terms), draw(_SCALAR)
    w = draw(st.tuples(*[st.integers(-3, 3)] * k).filter(any))
    # acc may hold exactly -c*a*b or -c*a, so that every term cancels
    cancel = draw(st.sampled_from([None, "product", "multiple"]))
    acc = draw(terms)
    if cancel == "product":
        acc = _normal_dict({e: -c * v for e, v in _ref_mul(a, b).items()})
    elif cancel == "multiple":
        acc = _normal_dict({e: -c * v for e, v in _ref_clean(a).items()})
    return acc, a, b, c, w


def _empty_tables():
    """Forget every interned vector, shift row, unit row and weight, as in a fresh process."""
    polyring._VECTORS.clear()
    polyring._SHIFTS.clear()
    polyring._UNITS.clear()
    polyring._WEIGHTS.clear()


def _run_kernels(acc, a, b, c, w):
    product, multiple = dict(acc), dict(acc)
    _add_product(product, a, b, c)
    _add_multiple(multiple, a, c)
    return product, multiple, _divmod_weight(product, Weight(w))


@settings(deadline=None)
@given(_kernel_case())
def test_term_kernels_match_reference(case):
    acc, a, b, c, w = case
    ra, rb, racc = _ref_clean(a), _ref_clean(b), _ref_clean(acc)
    a0, b0 = dict(a), dict(b)
    _empty_tables()
    cold = _run_kernels(acc, a, b, c, w)
    assert _run_kernels(acc, a, b, c, w) == cold  # the same results from warm tables
    product, multiple, (quot, rem) = cold
    _assert_normal_terms(product, _ref_add(racc, {e: c * v for e, v in _ref_mul(ra, rb).items()}))
    _assert_normal_terms(multiple, _ref_add(racc, {e: c * v for e, v in ra.items()}))
    # product = quot * w + rem, with rem free of the first variable of w
    j = next(i for i, x in enumerate(w) if x)
    rw = {tuple(int(i == k) for i in range(len(w))): Fraction(x) for k, x in enumerate(w) if x}
    _assert_normal_terms(rem, _ref_add(_ref_clean(product), _ref_mul(_ref_clean(quot), rw), -1))
    _assert_normal_terms(quot, _ref_clean(quot))
    assert all(e[j] == 0 for e in rem)
    assert a == a0 and b == b0


@settings(deadline=None)
@given(_kernel_case())
# a negative, non-unit leading entry under Fraction coefficients
@example(({(2, 1): Fraction(1, 3), (0, 2): -2, (1, 0): Fraction(-5, 2)}, {}, {}, 1, (-3, 2)))
def test_division_plan_is_cached_per_weight(case):
    terms, _, _, _, coeffs = case
    _empty_tables()
    w = Weight(coeffs)
    plan = w._plan
    assert plan == _plan_of(coeffs)  # made with the record, from the same unit rows
    first = _divmod_weight(terms, w)
    assert w._plan is plan and Weight(coeffs) is w  # one record, its plan kept
    again = _divmod_weight(terms, w)  # from the stored plan, with warm rows
    assert first == again
    # a plan made from the bare tuple, from empty tables and then warm ones
    _empty_tables()
    cold = _divmod_plan(terms, _plan_of(coeffs))
    assert cold == _divmod_plan(terms, _plan_of(coeffs)) == first
    quot, rem = first
    j = next(i for i, x in enumerate(coeffs) if x)
    assert all(e[j] == 0 for e in rem)
    # quot * w + rem gives the terms back
    back = dict(rem)
    _add_product(back, quot, Weight(coeffs).to_polynomial().terms)
    assert back == terms


@st.composite
def _exact_division_case(draw):
    """``(k, a, b, weights)``: polynomials in ``k`` variables, ``b`` nonzero
    and, when ``weights`` is a list, the product of those linear forms."""
    k = draw(st.integers(1, 3))
    a = draw(_sparse_polynomial(k))
    if draw(st.booleans()):
        forms = st.tuples(*[st.integers(-3, 3)] * k).filter(any).map(Weight)
        weights = draw(st.lists(forms, min_size=1, max_size=3))
        b = Polynomial.one(k)
        for w in weights:
            b = b * w.to_polynomial()
        return k, a, b, weights
    return k, a, draw(_sparse_polynomial(k).filter(lambda p: p.terms)), None


def _divide_exact_kept(terms, divisor):
    """``_divide_exact``, asserting that it changes neither input."""
    t0, d0 = dict(terms), dict(divisor)
    out = _divide_exact(terms, divisor)
    assert terms == t0 and divisor == d0
    return out


@settings(deadline=None)
@given(_exact_division_case(), st.tuples(*[st.integers(0, 3)] * 3), st.fractions(-5, 5, max_denominator=4))
# x2 * (x1 + x2) + x2^2: after one step the remainder x2^2 is no multiple of the lead term x1
@example((2, Polynomial(2, {(0, 1): 1}), Polynomial(2, {(1, 0): 1, (0, 1): 1}), None), (0, 2, 0), Fraction(1))
def test_exact_division_inverts_multiplication(case, m, c):
    k, a, b, weights = case
    product = a * b
    _empty_tables()
    quot = _divide_exact_kept(product.terms, b.terms)
    _assert_normal_terms(quot, _ref_clean(a.terms))
    assert _divide_exact_kept(product.terms, b.terms) == quot  # from warm tables
    # a term c*x^m lies in the ideal (b) only if b is a monomial dividing x^m
    m = m[:k]
    if c and (len(b.terms) > 1 or any(map(int.__lt__, m, next(iter(b.terms))))):
        assert _divide_exact_kept((product + Polynomial(k, {m: c})).terms, b.terms) is None
    if weights is not None:  # agrees with dividing by the weights one at a time
        for p in (product, product + Polynomial(k, {m: c}), a):
            chained = p
            try:
                for w in weights:
                    chained = divide_by_weight(chained, w)
            except NotDivisibleError:
                chained = None
            quot = _divide_exact_kept(p.terms, b.terms)
            assert (quot if quot is None else Polynomial._make(k, quot)) == chained


def test_kernels_share_equal_vectors():
    _empty_tables()
    parsed = parse_polynomial("x1^2*x2 + 3*x2", 2).terms
    product = {}
    _add_product(product, {(1, 1): 1}, {(1, 0): 1})  # x1*x2 * x1
    quot, _ = _divmod_weight({(3, 1): 1}, Weight((1, 0)))  # x1^3*x2 / x1
    bare, _ = _divmod_plan({(3, 1): 1}, _plan_of((1, 0)))  # the same, by a bare tuple's plan
    _, rem = _divmod_weight({(1, 0): 1}, Weight((1, -3)))  # x1 = (x1 - 3*x2) + 3*x2
    (e_parsed,) = (e for e in parsed if e == (2, 1))
    (e_product,) = product
    (e_quot,) = quot
    (e_bare,) = bare
    assert e_product is e_parsed and e_quot is e_parsed and e_bare is e_parsed
    (e_rem,) = rem
    (y_parsed,) = (e for e in parsed if e == (0, 1))
    assert e_rem is y_parsed and e_rem is next(iter(Weight((0, 1)).to_polynomial().terms))


@given(_COEFF, _COEFF.filter(bool))
@example(6, 3)
@example(Fraction(3, 2), Fraction(1, 2))
@example(-7, 2)
def test_quo_is_exact_and_normal(a, b):
    a0, b0 = a, b
    q = _quo(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is int or (type(q) is Fraction and q.denominator != 1), repr(q)
    assert (a, b) == (a0, b0) and type(a) is type(a0)


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(_COEFF, min_size=k, max_size=k))))
def test_linear_coeffs_reads_a_linear_form(case):
    k, coeffs = case
    terms = _normal_dict({tuple(int(i == j) for i in range(k)): Fraction(c) for j, c in enumerate(coeffs)})
    assert [Fraction(c) for c in _linear_coeffs(terms, k)] == [Fraction(c) for c in coeffs]


def test_public_inputs_are_refused_with_their_messages():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    a, b = Weight((1, 0)), Weight((0, 1))
    refused = [
        (lambda: solve_congruences([], 1), ValueError, "at least one congruence"),
        (lambda: solve_congruences([(a, x1)], -1), ValueError, "degree must be non-negative, got -1"),
        (lambda: solve_congruences([(a, x1), (Weight((0, 0)), x2)], 1), ZeroWeightError, "nonzero"),
        (lambda: solve_congruences([(a, x1), (Weight((0, 1, 0)), x2)], 1), ValueError, "mixed ranks"),
        (lambda: solve_congruences([(a, x1), (b, x1 * x2)], 1), ValueError, "not homogeneous of degree 1"),
        (lambda: solve_congruences([(a, x1), (Weight((2, 0)), x2)], 1), ValueError, "pairwise coprime"),
        (lambda: Polynomial(2, {(1,): 1}), ValueError, "has length != 2"),
        (lambda: Polynomial(2, {(1, -1): 1}), ValueError, "negative exponent"),
        (lambda: Polynomial.variable(2, 2), ValueError, "out of range for 2 variables"),
        # a negative nvars, which ended in RecursionError or was kept
        (lambda: monomials(-1, 2), ValueError, "nvars must be non-negative, got -1"),
        (lambda: Polynomial(-1, {}), ValueError, "nvars must be non-negative, got -1"),
        (lambda: Polynomial.zero(-1), ValueError, "nvars must be non-negative, got -1"),
        (lambda: divide_by_weight(x1, Weight((1, 0, 0))), ValueError, "different rings"),
    ]
    for make, error, message in refused:
        with pytest.raises(error, match=message):
            make()


def test_polynomial_operands_and_edge_values():
    z = Polynomial.variable(0, 3)
    for op in (lambda: X + "x1", lambda: X * "x1", lambda: X + 1.5, lambda: X * 1.5):
        with pytest.raises(TypeError):
            op()
    for op in (lambda: X + z, lambda: X * z):
        with pytest.raises(ValueError, match="polynomials live in different rings"):
            op()
    assert 3 - X == Polynomial(2, {(0, 0): 3, (1, 0): -1})
    assert hash(X * Y + 1) == hash(Polynomial(2, {(1, 1): 1, (0, 0): 1}))
    assert Polynomial.zero(2).degree() == -1
    assert monomials(0, 2) == []
