"""Command-line surface.

Exit codes: 0 success; 1 validation (or membership) failure; 2 unsolvable
or non-expandable systems; 3 non-integral results in Z-mode; 4 I/O, parse
or invalid-input errors, command-line usage errors, a graph or basis cut
below the requested degree and an input too large to hold in memory
included.  A graph argument of ``-`` (or omitted where allowed) reads JSON
from stdin, so subcommands compose in a pipeline::

    gkm build omega-su2 --degree 4 | gkm poincare
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from . import builders, oracle, render, ring_ops
from .coxeter import GCM
from .errors import (
    CutoffTooSmallError,
    GkmError,
    InvalidParabolicError,
    NoSolutionError,
    NonIntegralError,
    NonUniqueError,
    NotInSpanError,
    PolynomialParseError,
    UnsupportedTypeError,
    ValidationFailureError,
)
from .graph import CohClass, GkmGraph, is_gkm_class, validate
from .polyring import Polynomial, Weight, _count, monomials
from .solver import GeneratorBasis, canonical_generators, expand_in_basis

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str) -> GkmGraph:
    return GkmGraph.loads(_read_text(path))


def _load_gcm(path: str) -> GCM:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            import tomllib
        except ModuleNotFoundError:
            raise ValueError(f"{path}: not JSON, and TOML support needs Python 3.11+") from None
        data = tomllib.loads(text)
    rows = data["gcm"] if isinstance(data, dict) else data
    if not isinstance(rows, list) or any(not isinstance(row, list) for row in rows):
        raise ValueError(f"{path}: a Cartan matrix must be a list of rows, got {rows!r}")
    return GCM(tuple(tuple(row) for row in rows))


_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def integer(text: str) -> int:
    """An integer written on the command line: an optional sign and ASCII
    digits, with blanks around them.  ``int`` alone would also read
    ``1_0`` as 10 and non-ASCII digits such as ``"\u0663"`` as 3.  (Not
    underscored, since argparse names an option's type by it.)"""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_parabolic(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(integer(p) for p in text.split(","))


def _cmd_build(args) -> int:
    if args.chain is not None:
        weights = [
            Weight(tuple(integer(c) for c in part.split(",")))
            for part in args.chain.split(";")
            if part.strip()
        ]
        graph = builders.build_chain_graph(weights, mode=args.mode)
    elif args.gcm is not None:
        gcm = _load_gcm(args.gcm)
        degree = args.degree if args.degree is not None else 2
        graph = builders.build_flag_graph(
            gcm, _parse_parabolic(args.parabolic or ""), degree, mode=args.mode
        )
    else:
        if args.preset is None:
            print("build: need a preset name, --gcm FILE, or --chain WEIGHTS", file=sys.stderr)
            return 4
        graph = builders.build_preset(args.preset, args.degree, mode=args.mode)
    _write_text(args.output, graph.dumps())
    return 0


def _cmd_validate(args) -> int:
    graph = _load_graph(args.graph)
    report = validate(graph)
    print(report.format_text())
    return 0 if report.ok else 1


def _cmd_generators(args) -> int:
    graph = _load_graph(args.graph)
    top = max((v.cell_dim // 2 for v in graph.vertices), default=0)
    degree = args.degree if args.degree is not None else top
    basis = canonical_generators(graph, degree, mode=args.mode)
    _write_text(args.output, basis.dumps())
    return 0


def _cmd_check(args) -> int:
    graph = _load_graph(args.graph)
    cls = CohClass.from_dict(json.loads(_read_text(args.cls)), graph)
    result = is_gkm_class(graph, cls)
    if result.ok:
        print("class: ok (divisible across every edge)")
        return 0
    e = result.failing_edge
    print(f"class: FAIL at edge ({e.u}, {e.v}) with weight {e.weight}")
    return 1


def _cmd_multiply(args) -> int:
    basis = GeneratorBasis.from_dict(json.loads(_read_text(args.basis)))
    product = basis.generator(args.v) * basis.generator(args.w)
    coeffs = expand_in_basis(product, basis)
    if args.json:
        payload = {vid: str(c) for vid, c in coeffs.items() if not c.is_zero()}
        print(json.dumps(payload, indent=2))
    else:
        print("vertex\tcell_dim\tcoefficient")
        for vid, c in coeffs.items():
            if not c.is_zero():
                print(f"{vid}\t{basis.graph.vertex(vid).cell_dim}\t{c}")
    return 0


def _cmd_poincare(args) -> int:
    graph = _load_graph(args.graph)
    top = max((v.cell_dim // 2 for v in graph.vertices), default=0)
    degree = args.degree if args.degree is not None else top
    ranks = ring_ops.poincare_series(graph, degree)
    if args.json:
        print(json.dumps({"ranks": ranks}))
    else:
        print("degree\trank")
        for d, r in enumerate(ranks):
            print(f"{2 * d}\t{r}")
    return 0


def _cmd_power(args) -> int:
    if args.preset is not None:
        graph = builders.build_preset(args.preset, args.n)
    else:
        graph = _load_graph(args.graph)
    basis = canonical_generators(graph, args.n)
    value = ring_ops.power_coefficient(graph, basis, args.n)
    print(value)
    return 0


def _cmd_render(args) -> int:
    if (args.basis is None) != (args.vertex is None):
        raise ValueError("render: --basis and --vertex must be given together")
    graph = _load_graph(args.graph)
    basis = None
    if args.basis is not None:
        basis = GeneratorBasis.from_dict(json.loads(_read_text(args.basis)))
        if basis.graph != graph:
            raise ValueError(f"render: the basis {args.basis} was solved on another graph than {args.graph}")
    if args.format == "dot":
        text = render.to_dot(graph, basis, args.vertex)
    else:
        text = render.to_svg(graph, basis, args.vertex)
    _write_text(args.output, text)
    return 0


def _cmd_oracle(args) -> int:
    if args.kind == "schubert-compare":
        if args.gcm is not None:
            gcm, parabolic, degree = _load_gcm(args.gcm), frozenset(), 16
        else:
            gcm, parabolic, degree = builders.PRESETS[args.preset or "A2-flag"]
        if args.degree is not None:
            degree = args.degree
        graph = builders.build_flag_graph(gcm, parabolic, degree)
        basis = canonical_generators(graph, max(v.cell_dim // 2 for v in graph.vertices))
        schubert = oracle.schubert_restrictions(gcm, parabolic, degree)
        for vid in graph.vertex_ids:
            sch, gen = schubert[vid], basis.generator(vid)
            for wid in graph.vertex_ids:
                if sch.values[wid] != gen.values[wid]:
                    print(f"MISMATCH at generator {vid}, vertex {wid}: "
                          f"{sch.values[wid]} vs {gen.values[wid]}")
                    return 1
        print(f"schubert-compare: {len(graph.vertex_ids)} generators agree on every vertex")
        return 0
    if args.kind == "brute-rank":
        graph = _load_graph(args.graph)
        degree = args.degree if args.degree is not None else 2
        # every degree is solved before a line is printed, so that a
        # system above the bound prints nothing
        counts = [
            (len(oracle.brute_force_classes(graph, d)), oracle.expected_gkm_dimension(graph, d))
            for d in range(_count(degree, "degree") + 1)
        ]
        for d, (got, want) in enumerate(counts):
            print(f"degree {2 * d}: brute {got}, free-module {want} [{'ok' if got == want else 'FAIL'}]")
        return 0 if all(got == want for got, want in counts) else 1
    # s2n
    rank = args.rank
    if rank < 2:
        # rank 1 has no two non-proportional weights to draw
        raise ValueError(f"s2n needs --rank >= 2, got {rank}")
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(_count(args.trials, "s2n --trials")):
        ws = _random_coprime_weights(rng, rank, rng.choice((2, 3)))
        beta = _random_poly(rng, rank, rng.randrange(0, 3))
        g = beta
        for w in ws:
            g = g * w.to_polynomial()
        if not oracle.s2n_relative_image(ws, g):
            failures += 1
        probe = _random_poly(rng, rank, rng.randrange(0, 4))
        oracle.s2n_relative_image(ws, probe)  # raises on criteria disagreement
    print(f"s2n: {args.trials} trials, {failures} failures")
    return 0 if failures == 0 else 1


def _random_poly(rng: random.Random, rank: int, degree: int) -> Polynomial:
    terms = {m: rng.randrange(-4, 5) for m in monomials(rank, degree)}
    p = Polynomial(rank, terms)
    if p.is_zero():
        return Polynomial.one(rank)
    return p


def _random_coprime_weights(rng: random.Random, rank: int, count: int) -> list[Weight]:
    out: list[Weight] = []
    while len(out) < count:
        w = Weight(tuple(rng.randrange(-3, 4) for _ in range(rank)))
        if w.is_zero():
            continue
        if any(w.proportional(u) for u in out):
            continue
        out.append(w)
    return out


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 4 (invalid input), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gkm", description="equivariant cohomology of GKM cell complexes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a preset or custom flag graph")
    p.add_argument("preset", nargs="?", help=f"one of: {', '.join(sorted(builders.PRESETS))}")
    p.add_argument("--gcm", help="JSON/TOML file with an integer Cartan matrix")
    p.add_argument("--parabolic", help="comma-separated 0-based node indices")
    p.add_argument("--chain", help="chain graph with these labels, e.g. '1,0;1,1;1,2'")
    p.add_argument("--degree", type=integer)
    p.add_argument("--mode", default="Z", choices=("Z", "Q"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("validate", help="check the cell-complex rules")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generators", help="solve for the canonical generators")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--degree", type=integer)
    p.add_argument("--mode", choices=("Z", "Q"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("check", help="test membership of a class in the graph cohomology")
    p.add_argument("graph")
    p.add_argument("cls", metavar="class")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("multiply", help="expand the product of two generators")
    p.add_argument("basis")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("poincare", help="free-module ranks per degree")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--degree", type=integer)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("power", help="divided-powers coefficient of the degree-2 generator")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--preset", choices=sorted(builders.PRESETS))
    p.add_argument("--n", type=integer, required=True)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("render", help="emit DOT or SVG")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--basis")
    p.add_argument("--vertex")
    p.add_argument("--format", default="dot", choices=("dot", "svg"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle", help="independent verifiers")
    p.add_argument("kind", choices=("schubert-compare", "brute-rank", "s2n"))
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--preset", choices=sorted(builders.PRESETS))
    p.add_argument("--gcm")
    p.add_argument("--degree", type=integer)
    p.add_argument("--trials", type=integer, default=200)
    p.add_argument("--rank", type=integer, default=2)
    p.add_argument("--seed", type=integer, default=7)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailureError as err:
        print(err.report.format_text(), file=sys.stderr)
        return 1
    except (NoSolutionError, NotInSpanError, NonUniqueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonIntegralError as err:
        print(f"non-integral result: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, PolynomialParseError,
            UnsupportedTypeError, InvalidParabolicError, CutoffTooSmallError) as err:
        print(f"I/O, parse or input error: {err!r}", file=sys.stderr)
        return 4
    except MemoryError:
        print("input error: the input is too large to hold in memory", file=sys.stderr)
        return 4
    except GkmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
