"""Reflections, real roots, and coset enumeration."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmcalc import coxeter
from gkmcalc.builders import affine_type_a, build_flag_graph, type_a
from gkmcalc.coxeter import (
    GCM,
    _adjugate,
    _eliminate,
    CosetRep,
    Root,
    apply_word_dual,
    classify,
    coset_orbit,
    generic_dominant_vector,
    marks,
    real_roots,
    reflect,
    reflect_dual,
    reflection_word,
)
from gkmcalc.errors import InvalidParabolicError
from gkmcalc.oracle import nullspace_basis
from test_polyring import solve_linear_system

A1 = GCM(((2,),))
A2 = GCM(((2, -1), (-1, 2)))
B2 = GCM(((2, -1), (-2, 2)))
AFF_A1 = GCM(((2, -2), (-2, 2)))
TWISTED = GCM(((2, -1), (-4, 2)))


def _laplace(m) -> int:
    """Determinant by Laplace expansion along the first row: the tests'
    own reference, independent of ``_eliminate``."""
    if not m:
        return 1
    return sum(
        (-1) ** c * m[0][c] * _laplace([row[:c] + row[c + 1:] for row in m[1:]])
        for c in range(len(m))
    )


def _leading_minors(rows) -> list[int]:
    return [_laplace([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


def _cofactor_column(rows, j: int) -> tuple[int, ...]:
    """Column ``j`` of the adjugate of a square integer matrix, so that
    ``rows * column == det(rows) * e_j``: entry ``i`` is the cofactor of
    entry ``(j, i)``.  The reference for ``_adjugate`` and ``marks``."""
    minor = [row for r, row in enumerate(rows) if r != j]
    return tuple(
        (-1) ** (i + j) * _laplace([row[:i] + row[i + 1:] for row in minor])
        for i in range(len(rows))
    )


def word_matrix(gcm: GCM, word) -> tuple[tuple[int, ...], ...]:
    """Matrix of a word in the root-coordinate representation (columns are
    the images of the simple roots).  Used to cross-check coset dedup."""
    n = gcm.n
    cols = []
    for j in range(n):
        v = tuple(1 if t == j else 0 for t in range(n))
        for i in reversed(tuple(word)):
            v = reflect(gcm, i, v)
        cols.append(v)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def test_gcm_validation():
    with pytest.raises(ValueError):
        GCM(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        GCM(((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        GCM(((2, 0), (-1, 2)))


def test_reflect_simple_examples():
    assert reflect(A2, 0, (1, 0)) == (-1, 0)
    assert reflect(A2, 0, (0, 1)) == (1, 1)  # <a2, a1^vee> = -1


def test_reflect_is_involutive():
    rng = random.Random(3)
    for gcm in (A2, B2, AFF_A1, TWISTED):
        for _ in range(25):
            v = tuple(rng.randrange(-5, 6) for _ in range(gcm.n))
            i = rng.randrange(gcm.n)
            assert reflect(gcm, i, reflect(gcm, i, v)) == v


def test_classify_and_marks():
    assert classify(A2) == "finite"
    assert classify(B2) == "finite"
    assert classify(AFF_A1) == "affine"
    assert classify(TWISTED) == "affine"
    assert classify(GCM(((2, -3), (-3, 2)))) == "indefinite"
    assert marks(AFF_A1) == (1, 1)
    assert marks(TWISTED) == (1, 2)


@st.composite
def _square_matrix_and_column(draw):
    n = draw(st.integers(1, 5))
    entries = st.integers(-6, 6) | st.just(0)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return rows, draw(st.integers(0, n - 1))


@settings(deadline=None)
@given(_square_matrix_and_column())
def test_cofactor_column_is_adjugate_column(case):
    rows, j = case
    n = len(rows)
    col = _cofactor_column(rows, j)
    det = _laplace(rows)
    assert all(type(c) is int for c in col)
    assert [sum(a * c for a, c in zip(row, col)) for row in rows] == [
        det if i == j else 0 for i in range(n)
    ]
    if det:
        # the tests' Fraction elimination is the independent reference
        rhs = [Fraction(int(i == j)) for i in range(n)]
        inverse_col, null = solve_linear_system([list(map(Fraction, r)) for r in rows], rhs)
        assert not null
        assert [Fraction(c, det) for c in col] == inverse_col


@settings(deadline=None)
@given(_square_matrix_and_column())
@example(([[0, 1], [1, 0]], 0))
def test_adjugate_is_every_cofactor_column(case):
    # no row exchanges: a zero leading minor is refused, even in a
    # nonsingular matrix such as [[0, 1], [1, 0]]
    rows, _ = case
    if 0 in _leading_minors(rows):
        with pytest.raises(ValueError, match="singular"):
            _adjugate(rows)
        return
    cols = [_cofactor_column(rows, j) for j in range(len(rows))]
    assert _adjugate(rows) == (_laplace(rows), [list(row) for row in zip(*cols)])


@settings(deadline=None, max_examples=300)
@given(_square_matrix_and_column())
def test_eliminate_pivots_are_leading_minors(case):
    rows, _ = case
    n = len(rows)
    pivots, m = _eliminate(rows)
    minors = _leading_minors(rows)
    stop = minors.index(0) + 1 if 0 in minors else n
    assert pivots == minors[:stop]
    assert all(type(x) is int for row in m for x in row)
    if stop == n and pivots[-1]:
        det = minors[-1]
        assert [row[:n] for row in m] == [[det * (i == j) for j in range(n)] for i in range(n)]
        cols = [_cofactor_column(rows, j) for j in range(n)]
        assert [row[n:] for row in m] == [list(row) for row in zip(*cols)]


def test_marks_errors():
    with pytest.raises(ValueError, match="not one-dimensional"):
        marks(A2)  # det != 0
    with pytest.raises(ValueError, match="singular"):
        marks(GCM(((2, -2, 0, 0), (-2, 2, 0, 0), (0, 0, 2, -2), (0, 0, -2, 2))))  # corank 2
    with pytest.raises(ValueError, match="leading 2x2 block is singular"):
        marks(GCM(((2, -2, 0), (-2, 2, 0), (0, 0, 2))))  # decomposable
    with pytest.raises(ValueError, match="not strictly positive"):
        marks(GCM(((2, 0, 0), (0, 2, -2), (0, -2, 2))))  # kernel (0, 1, 1)


def test_empty_cartan_matrix():
    # the 0x0 matrix is of finite type, with determinant 1 and no kernel
    assert classify(GCM(())) == "finite"
    assert _adjugate([]) == (1, [])
    with pytest.raises(ValueError, match="not one-dimensional"):
        marks(GCM(()))


def _classify_by_principal_minors(gcm):
    """Reference classification by definition: one determinant per subset
    of nodes, and the kernel from the Fraction elimination of polyring."""
    n = gcm.n
    minors = {
        keep: _laplace([[gcm.a(i, j) for j in keep] for i in keep])
        for size in range(1, n + 1)
        for keep in combinations(range(n), size)
    }
    if all(m > 0 for m in minors.values()):
        return "finite"
    if minors[tuple(range(n))] == 0 and all(m > 0 for k, m in minors.items() if len(k) < n):
        kernel = nullspace_basis([[Fraction(a) for a in row] for row in gcm.rows], n)
        if len(kernel) == 1 and (all(c > 0 for c in kernel[0]) or all(c < 0 for c in kernel[0])):
            return "affine"
    return "indefinite"


@st.composite
def _gcms(draw):
    # nodes in different blocks never meet, so many matrices decompose;
    # a block may be an affine catalogue matrix, which random entries
    # seldom hit
    n = draw(st.integers(1, 6))
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    nodes = draw(st.permutations(range(n)))
    start = 0
    while start < n:
        size = draw(st.integers(1, n - start))
        block = nodes[start:start + size]
        start += size
        if size > 1 and draw(st.booleans()):
            gcm = TWISTED if size == 2 and draw(st.booleans()) else affine_type_a(size - 1)
            for (a, i), (b, j) in combinations(enumerate(block), 2):
                rows[i][j], rows[j][i] = gcm.a(a, b), gcm.a(b, a)
            continue
        for i, j in combinations(block, 2):
            if draw(st.booleans()):
                rows[i][j] = -draw(st.integers(1, 4))
                rows[j][i] = -draw(st.integers(1, 4))
    return GCM(tuple(map(tuple, rows)))


@settings(deadline=None, max_examples=300)
@given(_gcms())
def test_classify_matches_principal_minor_definition(gcm):
    assert classify(gcm) == _classify_by_principal_minors(gcm)


@settings(deadline=None, max_examples=300)
@given(_gcms())
def test_marks_match_the_cofactor_reference(gcm):
    if _classify_by_principal_minors(gcm) != "affine":
        with pytest.raises(ValueError):
            marks(gcm)
        return
    col = next(c for c in (_cofactor_column(gcm.rows, j) for j in range(gcm.n)) if any(c))
    assert marks(gcm) == tuple(abs(c) // gcd(*col) for c in col)


def test_classify_and_marks_take_one_elimination(monkeypatch):
    eliminate = coxeter._eliminate
    calls = []
    monkeypatch.setattr(coxeter, "_eliminate", lambda rows: calls.append(1) or eliminate(rows))
    indefinite = [list(row) for row in type_a(12).rows]
    indefinite[10][11] = indefinite[11][10] = -2  # det 24 - 4 * 11 < 0
    for gcm, kind in (
        (type_a(12), "finite"),
        (affine_type_a(12), "affine"),
        (GCM(tuple(map(tuple, indefinite))), "indefinite"),
    ):
        calls.clear()
        assert classify(gcm) == kind
        assert len(calls) == 1, (kind, len(calls))
    calls.clear()
    assert marks(affine_type_a(12)) == (1,) * 13
    assert len(calls) == 1


def test_generic_vector_beyond_thirty_free_nodes():
    gcm = type_a(31)
    mu, scale = generic_dominant_vector(gcm, ())
    assert mu[30] * 127 == scale  # the 31st prime
    assert all(reflect_dual(gcm, i, mu) != mu for i in range(gcm.n))


_SMALL_PRIMES = [p for p in range(2, 20) if all(p % d for d in range(2, p))]


@st.composite
def _gcm_and_parabolic(draw):
    n = draw(st.integers(1, 4))
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            rows[i][j] = -draw(st.integers(1, 4))
            rows[j][i] = -draw(st.integers(1, 4))
    return GCM(tuple(map(tuple, rows))), draw(st.frozensets(st.integers(0, n - 1)))


@settings(deadline=None, max_examples=200)
@given(_gcm_and_parabolic())
def test_generic_vector_is_the_scaled_prime_reciprocals(case):
    # S is the product of the first |free| primes and ints[i] = S / p_i on
    # the i-th free node, 0 on J; r_i fixes the vector exactly for i in J
    gcm, parabolic = case
    ints, scale = generic_dominant_vector(gcm, parabolic)
    free = [i for i in range(gcm.n) if i not in parabolic]
    assert type(scale) is int and scale == prod(_SMALL_PRIMES[:len(free)])
    assert all(type(x) is int for x in ints)
    for i, p in zip(free, _SMALL_PRIMES):
        assert ints[i] * p == scale
    assert all(ints[i] == 0 for i in parabolic)
    for i in range(gcm.n):
        image = tuple(x - ints[i] * gcm.a(j, i) for j, x in enumerate(ints))
        assert (image == ints) == (i in parabolic)


def test_real_roots_a2():
    assert {r.coords for r in real_roots(A2, 2)} == {(1, 0), (0, 1), (1, 1)}


def test_real_roots_a1():
    for h in (1, 5, 20):
        assert [r.coords for r in real_roots(A1, h)] == [(1,)]


def test_real_roots_affine_a1():
    # positive real roots are alpha1 + n*delta and alpha0 + n*delta
    assert {r.coords for r in real_roots(AFF_A1, 3)} == {(1, 0), (0, 1), (2, 1), (1, 2)}
    assert {r.coords for r in real_roots(AFF_A1, 5)} == {
        (1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3),
    }


def test_real_roots_closed_under_ball_reflections():
    for gcm, h in ((A2, 3), (B2, 4), (AFF_A1, 7), (TWISTED, 9)):
        roots = {r.coords for r in real_roots(gcm, h)}
        for c in roots:
            for i in range(gcm.n):
                image = reflect(gcm, i, c)
                if all(x >= 0 for x in image) and any(image) and sum(image) <= h:
                    assert image in roots


def test_reflection_word_acts_as_reflection():
    for gcm, h in ((A2, 2), (B2, 3), (AFF_A1, 5), (TWISTED, 7)):
        mu, _ = generic_dominant_vector(gcm, ())
        for root in real_roots(gcm, h):
            word = reflection_word(gcm, root)
            assert len(word) % 2 == 1
            # involutive on the generic vector
            once = apply_word_dual(gcm, word, mu)
            assert apply_word_dual(gcm, word, once) == mu


def _coset_words(gcm, parabolic, cutoff):
    return [rep.word for rep, _ in coset_orbit(gcm, parabolic, cutoff)[0]]


def test_coset_orbit_a2_full():
    words = _coset_words(A2, (), 3)
    assert len(words) == 6
    assert Counter(map(len, words)) == Counter({0: 1, 1: 2, 2: 2, 3: 1})


def test_coset_orbit_identity_only():
    assert _coset_words(B2, (), 0) == [()]


def test_coset_orbit_affine_grassmannian():
    assert list(map(len, _coset_words(AFF_A1, (1,), 4))) == [0, 1, 2, 3, 4]


def test_coset_orbit_invalid_parabolic():
    with pytest.raises(InvalidParabolicError):
        coset_orbit(A2, (5,), 2)


def test_length_generating_functions_match_q_factorials():
    cases = {
        A1: {0: 1, 1: 1},
        A2: {0: 1, 1: 2, 2: 2, 3: 1},
        B2: {0: 1, 1: 2, 2: 2, 3: 2, 4: 1},
    }
    for gcm, expected in cases.items():
        assert Counter(map(len, _coset_words(gcm, (), 12))) == Counter(expected)


def test_dedup_agrees_with_matrix_representation():
    # enumerate raw words up to length 4 and partition them two ways
    from itertools import product

    for gcm in (A2, B2):
        mu, _ = generic_dominant_vector(gcm, ())
        words = {w for n in range(5) for w in product(range(gcm.n), repeat=n)}
        by_vector = {}
        by_matrix = {}
        for w in words:
            by_vector.setdefault(apply_word_dual(gcm, w, mu), set()).add(w)
            by_matrix.setdefault(word_matrix(gcm, w), set()).add(w)
        assert set(map(frozenset, by_vector.values())) == set(map(frozenset, by_matrix.values()))


def test_reflection_parity():
    # l(r_b w) and l(w) always differ in parity (full flag case)
    for gcm, cutoff in ((A2, 3), (B2, 4), (AFF_A1, 4)):
        g = build_flag_graph(gcm, (), cutoff)
        assert g.edges
        for e in g.edges:
            assert (g.vertex(e.u).cell_dim - g.vertex(e.v).cell_dim) // 2 % 2 == 1


ORBIT_CASES = {
    "A2": (A2, (), 3),
    "B2": (B2, (), 4),
    "B2/P1": (B2, (1,), 4),
    "affine-A1": (AFF_A1, (), 6),
    "affine-A1/P1": (AFF_A1, (1,), 8),
    "twisted": (TWISTED, (), 6),
    "twisted/P1": (TWISTED, (1,), 8),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_coset_orbit_is_scaled_generic_orbit(case):
    # the orbit runs on int vectors, one positive multiple of the
    # Fraction orbit of the generic vector shared by every coset
    gcm, parabolic, cutoff = ORBIT_CASES[case]
    ints, scale = generic_dominant_vector(gcm, parabolic)
    mu = tuple(Fraction(x, scale) for x in ints)
    reps, table, *_ = coset_orbit(gcm, parabolic, cutoff)
    scales = set()
    for rep, vec in reps:
        assert all(type(x) is int for x in vec)
        assert table[vec] == rep
        exact = apply_word_dual(gcm, rep.word, mu)
        scales.update(Fraction(a) / b for a, b in zip(vec, exact) if b)
        assert all(a == 0 for a, b in zip(vec, exact) if not b)
    assert scales == {scale}


def test_generic_vector_stabilizer():
    mu, scale = generic_dominant_vector(TWISTED, (1,))
    assert mu == (1, 0) and scale == 2
    with pytest.raises(InvalidParabolicError):
        generic_dominant_vector(A2, (-1,))


def test_value_types_reject_non_integers():
    for bad in (((2, -1.5), (-1, 2)), ((2, True), (True, 2)), ((2, Fraction(-1)), (-1, 2))):
        with pytest.raises(ValueError, match="must be integers"):
            GCM(bad)
    for bad in ((1.7, 0), (True, 0), (Fraction(1), 0)):
        with pytest.raises(ValueError, match="must be integers"):
            Root(bad)
    for bad in ((0.9,), (False,), ("0",)):
        with pytest.raises(ValueError, match="must be integers"):
            CosetRep(bad)
    # any iterable of ints is still accepted and stored as a tuple
    assert GCM([[2, -1], [-1, 2]]).rows == ((2, -1), (-1, 2))
    assert Root([1, 0]).coords == (1, 0)
    assert CosetRep([0, 1]).word == (0, 1)


def test_coxeter_inputs_are_refused_with_their_messages():
    refused = [
        (lambda: reflect(A2, 2, (0, 1)), IndexError, "simple index 2 out of range"),
        (lambda: reflect_dual(A2, -1, (1, 1)), IndexError, "simple index -1 out of range"),
        (lambda: reflection_word(A2, Root((-1, 0))), ValueError, r"\(-1,0\) is not a positive root"),
        (lambda: reflection_word(A2, Root((0, 0))), ValueError, r"\(0,0\) is not a positive root"),
        # delta = alpha_0 + alpha_1 is imaginary: no reflection shortens it
        (lambda: reflection_word(AFF_A1, Root((1, 1))), ValueError, r"\(1,1\) is not a real root"),
        (lambda: coset_orbit(A2, (), -1), ValueError, "length cutoff must be non-negative"),
    ]
    for make, error, message in refused:
        with pytest.raises(error, match=message):
            make()
    assert real_roots(A2, 0) == []
