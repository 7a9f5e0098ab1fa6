"""Correctness checks for the benchmark's outputs.

Every check here is computed apart from the program: polynomials are read
out of the program's objects as plain ``{exponents: Fraction}`` dicts and
all arithmetic, series and divisibility tests are done in this file.  The
only program code a check relies on is the Schubert oracle, which the
workloads call themselves (``gkmcalc.oracle`` is the package's checker and
does not touch the congruence solver).

Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

MAX_REPORTED = 5


# -- plain polynomial arithmetic ---------------------------------------------


def terms(poly) -> dict:
    """A program polynomial as a ``{exponents: Fraction}`` dict."""
    return {e: Fraction(c) for e, c in poly.terms.items() if c}


def poly_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def linear_form(coeffs) -> dict:
    n = len(coeffs)
    return {
        tuple(int(i == k) for i in range(n)): Fraction(c) for k, c in enumerate(coeffs) if c
    }


def restrict_to_hyperplane(p: dict, w) -> dict:
    """``p`` with ``x_k = -(sum_{j != k} w_j x_j) / w_k`` substituted, for the
    first ``k`` with ``w_k != 0``.  The result is zero exactly when the
    linear form ``w`` divides ``p`` over Q (and, for integral ``p`` and
    primitive ``w``, over Z by Gauss's lemma)."""
    n = len(w)
    k = next(i for i, c in enumerate(w) if c)
    sub = {
        tuple(int(i == j) for i in range(n)): Fraction(-w[j], w[k])
        for j in range(n)
        if j != k and w[j]
    }
    out: dict = {}
    for e, c in p.items():
        term = {tuple(0 if i == k else x for i, x in enumerate(e)): Fraction(c)}
        for _ in range(e[k]):
            term = poly_mul(term, sub)
        out = poly_add(out, term)
    return out


# -- closed-form Poincare series ---------------------------------------------


def _series_mul(a: list[int], b: list[int], d: int) -> list[int]:
    out = [0] * (d + 1)
    for i, x in enumerate(a[: d + 1]):
        if x:
            for j, y in enumerate(b[: d + 1 - i]):
                out[i + j] += x * y
    return out


def _geometric(step: int, d: int) -> list[int]:
    """Coefficients of ``1 / (1 - t^step)`` up to ``t^d``."""
    return [1 if i % step == 0 else 0 for i in range(d + 1)]


def loop_group_series(n: int, d: int) -> list[int]:
    """Cells per length of the based loop space of SU(n): ``prod_{i<n} 1/(1-t^i)``."""
    out = [1] + [0] * d
    for i in range(1, n):
        out = _series_mul(out, _geometric(i, d), d)
    return out


def one_per_length(d: int) -> list[int]:
    return [1] * (d + 1)


def affine_weyl_series(exponents, d: int) -> list[int]:
    """Bott's formula for an affine Weyl group with the given classical
    exponents: ``prod_i (1 + t + ... + t^{e_i}) / (1 - t^{e_i})``."""
    out = [1] + [0] * d
    for e in exponents:
        out = _series_mul(out, [1] * (e + 1), d)
        out = _series_mul(out, _geometric(e, d), d)
    return out


def infinite_dihedral_series(d: int) -> list[int]:
    """Two elements of every positive length (rank-2 Weyl group with ``a_12 a_21 >= 4``)."""
    return [1] + [2] * d


# -- graph checks ------------------------------------------------------------


def _lengths(graph) -> dict[str, int]:
    return {v.id: v.cell_dim // 2 for v in graph.vertices}


def check_counts(graph, expected: list[int], what: str) -> list[str]:
    """Vertex count per length equals the closed-form series up to its degree."""
    got = [0] * len(expected)
    for length in _lengths(graph).values():
        if length >= len(got):
            return [f"{what}: vertex of length {length} beyond the cutoff {len(got) - 1}"]
        got[length] += 1
    if got != expected:
        return [f"{what}: vertices per length {got}, closed form gives {expected}"]
    return []


def check_down_edges(graph, what: str) -> list[str]:
    """Each vertex of length l has exactly l down-edges."""
    length = _lengths(graph)
    down = dict.fromkeys(length, 0)
    for e in graph.edges:
        lu, lv = length[e.u], length[e.v]
        if lu != lv:
            down[e.u if lu > lv else e.v] += 1
    bad = [vid for vid, n in down.items() if n != length[vid]]
    return [f"{what}: vertex {vid} has {down[vid]} down-edges, length {length[vid]}" for vid in bad[:MAX_REPORTED]]


def check_edge_lines(graph, what: str) -> list[str]:
    """Each edge's position difference is a nonzero rational multiple of its label."""
    pos = {v.id: v.position for v in graph.vertices}
    out = []
    for e in graph.edges:
        pu, pv = pos[e.u], pos[e.v]
        if pu is None or pv is None:
            out.append(f"{what}: edge ({e.u}, {e.v}) has an endpoint without a position")
            continue
        diff = [Fraction(a) - Fraction(b) for a, b in zip(pu, pv)]
        w = e.weight.coeffs
        k = next(i for i, c in enumerate(w) if c)
        lam = diff[k] / w[k]
        if lam == 0 or any(diff[i] != lam * w[i] for i in range(len(w))):
            out.append(f"{what}: edge ({e.u}, {e.v}) direction {diff} is off its label {list(w)}")
    return out[:MAX_REPORTED]


def check_round_trip(graph, text: str, loaded, redumped: str, what: str) -> list[str]:
    out = []
    if loaded != graph:
        out.append(f"{what}: graph loaded from its JSON differs from the built graph")
    if redumped != text:
        out.append(f"{what}: JSON of the loaded graph is not byte-identical to the original")
    return out


# -- generator checks --------------------------------------------------------


def check_generators(graph, generators: dict, what: str) -> list[str]:
    """The defining conditions of the canonical generators.

    ``generators`` maps a vertex id to ``{vertex id: polynomial dict}``.
    Each generator is divisible across every edge, vanishes below its cell
    and beside it (same dimension, other vertex), and at its own vertex
    equals the product of its down-edge labels.
    """
    dim = {v.id: v.cell_dim for v in graph.vertices}
    rank = graph.rank
    down_product = {vid: {(0,) * rank: Fraction(1)} for vid in dim}
    for e in graph.edges:
        if dim[e.u] != dim[e.v]:
            top = e.u if dim[e.u] > dim[e.v] else e.v
            down_product[top] = poly_mul(down_product[top], linear_form(e.weight.coeffs))
    out = []
    for vid, values in generators.items():
        for wid in dim:
            f = values.get(wid)
            if f is None:
                out.append(f"{what}: generator {vid} has no value at {wid}")
            elif wid == vid and f != down_product[vid]:
                out.append(f"{what}: generator {vid} at its own vertex is not its down-edge product")
            elif wid != vid and dim[wid] <= dim[vid] and f:
                out.append(f"{what}: generator {vid} does not vanish at {wid}")
        for e in graph.edges:
            diff = poly_add(values.get(e.u, {}), values.get(e.v, {}), -1)
            if restrict_to_hyperplane(diff, e.weight.coeffs):
                out.append(f"{what}: generator {vid} is not divisible across edge ({e.u}, {e.v})")
    return out[:MAX_REPORTED]


def check_power_laws(law: str, coefficients: list) -> list[str]:
    """``coefficients[n-1]`` is the power coefficient for ``n``: ``n!`` for
    loops in SU(2), ``n! * 2^(n//2)`` for the twisted example."""
    out = []
    for n, got in enumerate(coefficients, start=1):
        want = factorial(n) * (2 ** (n // 2) if law == "twisted" else 1)
        if got != want:
            out.append(f"{law}: power coefficient for n={n} is {got}, expected {want}")
    return out


def check_against_oracle(generators: dict, oracle: dict, what: str) -> list[str]:
    """Every generator equals the oracle's Schubert restriction at every vertex."""
    out = []
    for vid, values in generators.items():
        for wid, f in values.items():
            if f != oracle[vid][wid]:
                out.append(f"{what}: generator {vid} at {wid} differs from the Schubert oracle")
    return out[:MAX_REPORTED]


# -- structure-constant checks -----------------------------------------------


def check_positivity(constants: dict, what: str) -> list[str]:
    """Graham positivity: every equivariant structure constant is a polynomial
    in the simple roots with non-negative integer coefficients."""
    out = []
    for wid, c in constants.items():
        if any(x < 0 or Fraction(x).denominator != 1 for x in c.values()):
            out.append(f"{what}: structure constant at {wid} is not a non-negative integer polynomial")
    return out


def check_reproduces(generators: dict, left: dict, right: dict, coefficients: dict, what: str) -> list[str]:
    """``sum_w c_w f_w`` equals the pointwise product ``left * right`` at every vertex."""
    total = {x: {} for x in left}
    for wid, c in coefficients.items():
        if c:
            for x in left:
                total[x] = poly_add(total[x], poly_mul(c, generators[wid][x]))
    bad = [x for x in left if total[x] != poly_mul(left[x], right[x])]
    return [f"{what}: expansion does not reproduce the product at {x}" for x in bad[:MAX_REPORTED]]


def check_bilinear(expansion: dict, a: dict, b: dict, constants: dict, what: str) -> list[str]:
    """The expansion of ``(sum a_u f_u)(sum b_v f_v)`` equals
    ``sum a_u b_v c^{uv}``, with ``constants[frozenset({u, v})]`` the
    structure constants of ``f_u f_v``."""
    want: dict = {}
    for u, au in a.items():
        for v, bv in b.items():
            for wid, c in constants[frozenset((u, v))].items():
                want[wid] = poly_add(want.get(wid, {}), c, au * bv)
    bad = [w for w in set(want) | set(expansion) if want.get(w, {}) != expansion.get(w, {})]
    return [f"{what}: coefficient at {w} is not the bilinear combination" for w in sorted(bad)[:MAX_REPORTED]]
