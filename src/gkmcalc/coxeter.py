"""Generalized Cartan matrices, real roots, and minimal coset representatives.

The Weyl group of a generalized Cartan matrix acts on two integer lattices:

* root coordinates, ``v`` in the basis of simple roots, where
  ``r_i(v) = v - (A v)_i e_i`` with ``A`` the Cartan matrix;
* dual coordinates, ``mu_j = <mu, alpha_j^vee>``, where
  ``r_i(mu)_j = mu_j - mu_i * a_{ji}``.

Group elements are never normalized by word rewriting.  Instead they are
canonicalized by their action on a generic dominant rational vector whose
stabilizer is exactly the parabolic subgroup ``W_J``: two words land in
the same coset of ``W/W_J`` precisely when they move that vector to the
same place.  This is exact, deterministic, and works uniformly for finite
and affine types.

The orbit itself runs on ``int`` vectors: the generic vector is built
already scaled by the lcm ``S`` of its denominators, which commutes with
the linear action and keeps the stabilizer, so cosets, words and their
order are those of the rational vector.  Callers that need rational
coordinates divide by ``S`` once where they write a position out.
Each coset comes out as its reduced word, a plain tuple of the ``int``
letters the walk built, next to its vector and index.

One fraction-free elimination, ``_eliminate``, answers all three questions
about the matrix itself: its type, the marks of an affine matrix and the
adjugate the builder inverts with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd, prod

from .errors import InvalidParabolicError
from .polyring import _count, _int_arg, _int_tuple, _primes

__all__ = [
    "GCM",
    "CosetRep",
    "reflect",
    "reflect_dual",
    "classify",
    "marks",
    "real_roots",
    "reflection_word",
    "coset_orbit",
    "generic_dominant_vector",
    "apply_word_dual",
]

@dataclass(frozen=True)
class GCM:
    """A generalized Cartan matrix: 2 on the diagonal, non-positive integers
    off it, and ``a_ij = 0`` exactly when ``a_ji = 0``."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_int_tuple(row, "Cartan matrix entries") for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if rows[i][i] != 2:
                raise ValueError(f"diagonal entry a[{i}][{i}] must be 2")
            for j in range(n):
                if i != j:
                    if rows[i][j] > 0:
                        raise ValueError(f"off-diagonal entry a[{i}][{j}] must be <= 0")
                    if (rows[i][j] == 0) != (rows[j][i] == 0):
                        raise ValueError(f"a[{i}][{j}] and a[{j}][{i}] must vanish together")

    @property
    def n(self) -> int:
        return len(self.rows)

    def a(self, i: int, j: int) -> int:
        return self.rows[i][j]


@dataclass(frozen=True)
class CosetRep:
    """A word of simple reflection indices (0-based) naming a coset, the
    argument of :func:`~gkmcalc.oracle.divided_difference_schubert`.

    ``CosetRep(word)`` refuses a letter whose type is not ``int``.
    :func:`coset_orbit` makes none: its words are plain tuples."""

    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", _int_tuple(self.word, "word letters"))


def reflect(gcm: GCM, i: int, v):
    """Simple reflection on root coordinates: ``r_i(v) = v - (A v)_i e_i``.
    An index that is not an ``int`` raises ``ValueError``, one outside
    ``0..n-1`` ``IndexError``; so does every reflection below.

    >>> a2 = GCM(((2, -1), (-1, 2)))
    >>> reflect(a2, 0, (0, 1))
    (1, 1)
    >>> reflect(a2, 0, reflect(a2, 0, (3, 5)))
    (3, 5)
    """
    if type(i) is not int or not 0 <= i < gcm.n:
        _int_arg(i, "simple index")
        raise IndexError(f"simple index {i} out of range")
    pairing = sum(a * x for a, x in zip(gcm.rows[i], v))
    out = list(v)
    out[i] = out[i] - pairing
    return tuple(out)


def reflect_dual(gcm: GCM, i: int, mu):
    """Simple reflection on dual coordinates ``mu_j = <mu, alpha_j^vee>``."""
    if type(i) is not int or not 0 <= i < gcm.n:
        _int_arg(i, "simple index")
        raise IndexError(f"simple index {i} out of range")
    mi = mu[i]
    return tuple(m - mi * row[i] for m, row in zip(mu, gcm.rows))


def apply_word_dual(gcm: GCM, word, mu):
    """Act by ``s_{w1} ... s_{wl}`` on dual coordinates (rightmost first)."""
    for i in reversed(tuple(word)):
        mu = reflect_dual(gcm, i, mu)
    return mu


def _eliminate(rows) -> tuple[list[int], list[list[int]]]:
    """``(pivots, m)`` from the fraction-free (Bareiss) Gauss-Jordan
    elimination of ``[rows | I]``, with exact divisions and no row
    exchanges, stopped at the first zero pivot.  The pivots are the leading
    principal minors in order.  After ``k`` steps the left half starts with
    ``k`` columns of ``d*I``, ``d`` the last pivot; so ``m`` ends at
    ``[det*I | adj]`` when no pivot is zero.

    >>> _eliminate([[2, -1], [-1, 2]])
    ([2, 3], [[3, 0, 2, 1], [0, 3, 1, 2]])
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, prev = [], 1
    for k in range(n):
        top, p = m[k], m[k][k]
        pivots.append(p)
        if not p:
            break
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(x * p - f * t) // prev for x, t in zip(m[r], top)]
        prev = p
    return pivots, m


def _adjugate(rows) -> tuple[int, list[list[int]]]:
    """``(det, adj)`` read off the ``[det*I | adj]`` of ``_eliminate``.
    Raises ``ValueError`` on a zero leading minor, which a matrix of finite
    type, such as the classical block the builder inverts, never has."""
    pivots, m = _eliminate(rows)
    det = pivots[-1] if pivots else 1  # the 0x0 matrix has determinant 1
    if not det:
        raise ValueError(f"leading {len(pivots)}x{len(pivots)} block is singular")
    return det, [row[len(rows):] for row in m]


def _null_vector(pivots, m) -> tuple[int, ...]:
    """The primitive kernel vector ``(-x, d)`` read off the left half
    ``[[d*I, x], [0, 0]]`` of an elimination stopped at its last pivot;
    ``ValueError`` for any other stop or a vector not strictly positive."""
    n = len(m)
    if not pivots or pivots[-1]:
        raise ValueError("Cartan matrix kernel is not one-dimensional: it is nonsingular")
    if len(pivots) < n:
        raise ValueError(f"leading {len(pivots)}x{len(pivots)} block is singular")
    col = tuple(-row[n - 1] for row in m[:-1]) + (pivots[-2],)
    g = gcd(*col)
    ints = tuple(v // g for v in col)
    if any(v <= 0 for v in ints):
        raise ValueError("kernel vector is not strictly positive")
    return ints


def classify(gcm: GCM) -> str:
    """Sort a Cartan matrix into ``finite``, ``affine`` or ``indefinite``
    from one ``_eliminate`` call.

    By definition, finite type means every principal minor is positive, and
    affine means the determinant vanishes, every proper principal minor is
    positive and the kernel is spanned by a strictly positive vector.  A
    Cartan matrix has non-positive off-diagonal entries, so two classical
    facts make the pivots and the kernel of one elimination enough:

    * Fiedler-Ptak (Czech. Math. J., 1962): all principal minors are
      positive exactly when the ``n`` leading ones, the pivots, are;
    * Kac (Infinite-dimensional Lie algebras, ch. 4): affine type is an
      irreducible singular M-matrix.  It stops the elimination at the last
      pivot with a strictly positive kernel vector; conversely, such a
      vector makes the matrix a singular M-matrix, and its one-dimensional
      kernel rules out a block-diagonal split.
    """
    pivots, m = _eliminate(gcm.rows)
    if all(p > 0 for p in pivots):  # no zero pivot stopped the elimination
        return "finite"
    try:
        _null_vector(pivots, m)
    except ValueError:
        return "indefinite"
    return "affine"


def marks(gcm: GCM) -> tuple[int, ...]:
    """The primitive positive integer vector spanning the kernel of an
    affine Cartan matrix; its entries are the coefficients of the simple
    roots in the null root delta.  One ``_eliminate`` call, the same as in
    ``classify``, gives it; ``ValueError`` when the matrix is not affine."""
    return _null_vector(*_eliminate(gcm.rows))


def real_roots(gcm: GCM, height_cutoff: int) -> list[tuple[int, ...]]:
    """All positive real roots of height at most ``height_cutoff``, as
    simple-root coordinates in (height, coordinates) order.

    Real roots are the Weyl images of simple roots; since the descent chain
    of any positive real root decreases height monotonically, closing the
    set of simple roots under reflections inside the height ball finds
    every one of them exactly once.  A cutoff below 1 finds none, and one
    that is not an ``int`` raises ``ValueError``.

    >>> real_roots(GCM(((2, -1), (-1, 2))), 2)
    [(0, 1), (1, 0), (1, 1)]
    """
    if _int_arg(height_cutoff, "height cutoff") < 1:
        return []
    seen: set[tuple[int, ...]] = set()
    frontier: list[tuple[int, ...]] = []
    for i in range(gcm.n):
        e = tuple(1 if j == i else 0 for j in range(gcm.n))
        seen.add(e)
        frontier.append(e)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(gcm.n):
                w = reflect(gcm, i, v)
                if w in seen or any(c < 0 for c in w) or sum(w) > height_cutoff:
                    continue
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return sorted(seen, key=lambda c: (sum(c), c))


def reflection_word(gcm: GCM, coords) -> tuple[int, ...]:
    """A word for the reflection ``r_beta`` of the positive real root with
    simple-root coordinates ``coords``.

    Computed by height descent: if ``beta`` is simple this is ``(i,)``,
    otherwise some simple reflection shortens it and
    ``r_beta = r_i r_{r_i(beta)} r_i``.  The descent is a loop, not a
    recursion, so a root of any height gets its word.  Raises
    ``ValueError`` when a coordinate is not an ``int`` or the input is not
    a positive real root.
    """
    coords = _int_tuple(coords, "root coordinates")
    if any(c < 0 for c in coords) or not any(coords):
        raise ValueError(f"{coords} is not a positive root")
    letters, beta = [], coords
    while sum(beta) != 1:
        for i in range(gcm.n):
            image = reflect(gcm, i, beta)
            if sum(image) < sum(beta) and all(c >= 0 for c in image) and any(image):
                break
        else:
            raise ValueError(f"{coords} is not a real root")
        letters.append(i)
        beta = image
    return (*letters, beta.index(1), *reversed(letters))


def generic_dominant_vector(gcm: GCM, parabolic) -> tuple[tuple[int, ...], int]:
    """``(ints, S)``: a dominant integer vector with stabilizer exactly
    ``W_J``, and the scale ``S`` that makes it one.

    ``S`` is the product of the first ``|free|`` primes, ``free`` the nodes
    outside ``J``; the ``k``-th free node gets ``S / p_k``, ``p_k`` the
    ``k``-th prime, and ``J`` gets 0.  That is the rational vector of
    strictly decreasing prime reciprocals, times ``S``.  Dominance makes
    the stabilizer the parabolic generated by the simple reflections that
    fix it, which is exactly ``W_J``.  Raises
    :class:`InvalidParabolicError` for a node that is not an ``int`` of
    ``0..n-1``.

    >>> generic_dominant_vector(GCM(((2, -1), (-1, 2))), ())
    ((3, 2), 6)
    """
    J = frozenset(parabolic)
    for j in J:
        if type(j) is not int:
            raise InvalidParabolicError(f"parabolic node must be an int, not {j!r}")
    if not J <= set(range(gcm.n)):
        raise InvalidParabolicError(f"parabolic {sorted(J)} not a subset of 0..{gcm.n - 1}")
    free = [i for i in range(gcm.n) if i not in J]
    primes = list(islice(_primes(), len(free)))
    scale = prod(primes)
    mu = [0] * gcm.n
    for i, p in zip(free, primes):
        mu[i] = scale // p
    return tuple(mu), scale


def coset_orbit(gcm: GCM, parabolic, length_cutoff: int):
    """Breadth-first orbit of the generic vector under left multiplication.

    The orbit starts from the integer generic vector ``ints`` of
    :func:`generic_dominant_vector`, a positive multiple of the rational
    one, which has the same stabilizer and so the same cosets.  Returns
    ``(reps, at, parent, up)``: ``reps`` is the list of ``(word, vector)``
    pairs sorted by (length, word), each word a plain tuple of ``int``
    letters, and ``at`` maps each orbit vector to its index in ``reps``.
    The other two index into ``reps`` too: ``parent[k]`` is the coset
    whose expansion named ``reps[k]`` (``None`` for ``e``), and ``up[k]``,
    for each coset shorter than the cutoff (a prefix of ``reps``), holds
    the cosets of its ``n`` simple reflections
    ``reflect_dual(gcm, i, vector)``.

    The walk expands one length at a time, in word order and letter by
    letter, and names a new coset ``(i,) + word`` after the first
    expansion that reaches it.  So each word is a shortest path in the
    orbit graph, hence a reduced word for a minimal-length coset
    representative, and its parent's word is the word without its first
    letter.  Raises ``ValueError`` for a cutoff that is not a
    non-negative ``int``.
    """
    _count(length_cutoff, "length cutoff")
    mu, _ = generic_dominant_vector(gcm, parabolic)
    reps: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), mu)]
    at = {mu: 0}
    parent: list[int | None] = [None]
    images = []
    shell = range(1)  # the indices of one length's cosets
    while shell and len(reps[shell[0]][0]) < length_cutoff:
        found = {}  # each coset one length up -> (its word, its parent)
        for k in shell:
            word, vec = reps[k]
            images.append([reflect_dual(gcm, i, vec) for i in range(gcm.n)])
            for i, v2 in enumerate(images[-1]):
                if v2 not in at and v2 not in found:
                    found[v2] = ((i,) + word, k)
        shell = range(len(reps), len(reps) + len(found))
        for v2, (word, k) in sorted(found.items(), key=lambda item: item[1]):
            at[v2] = len(reps)
            reps.append((word, v2))
            parent.append(k)
    up = [tuple([at[v] for v in row]) for row in images]
    return reps, at, parent, up
