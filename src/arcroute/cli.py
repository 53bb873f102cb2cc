"""Command-line front end: build, verify, route, gen, oracle1.

Data goes to stdout (JSON or plain ids), diagnostics to stderr.
Exit codes: 0 success, 1 verification failure, 2 unusable input, 141 closed stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .arc_model import intersection_graph, parse_model
from .builder import build_scheme
from .errors import ArcRouteError, RouteError
from .generator import (gen_complete, gen_perturbed_ring, gen_random, gen_ring,
                        gen_wheel)
from .oracle import DEFAULT_VERTEX_LIMIT, has_shortest_path_1irs, witness_scheme
from .scheme import RoutingScheme
from .verifier import interval_stats, route, verify_scheme

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_STRUCTURAL = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command it killed


class BadArgumentError(ArcRouteError):
    code = "bad-argument"  # an argument the library rejects with ValueError


def _load_model(path: str):
    return parse_model(Path(path).read_bytes())


def _load_scheme(path: str) -> RoutingScheme:
    return RoutingScheme.from_json(Path(path).read_bytes())


def _write(text: str, out: str | None) -> None:
    """Write ``text`` and a newline to the file ``out``, or to stdout."""
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_build(args) -> int:
    model = _load_model(args.model)
    scheme = build_scheme(model)
    _write(scheme.to_json(), args.out)
    print(interval_stats(scheme).to_json(), file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    scheme = _load_scheme(args.scheme)
    graph = intersection_graph(model)
    report = verify_scheme(graph, scheme)
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_route(args) -> int:
    model = _load_model(args.model)
    scheme = _load_scheme(args.scheme)
    graph = intersection_graph(model)
    try:
        path = route(scheme, graph, args.src, args.dst)
    except ValueError as exc:  # a route from a vertex to itself
        raise BadArgumentError(str(exc)) from exc
    print(" ".join(str(v) for v in path))
    return EXIT_OK


# the generator of each ``gen --family``, in the order usage lists them
_FAMILIES = {
    "ring": lambda n, seed: gen_ring(n),
    "wheel": lambda n, seed: gen_wheel(n),
    "random": lambda n, seed: gen_random(n, seed),
    "complete": lambda n, seed: gen_complete(n),
    "perturbed-ring": lambda n, seed: gen_perturbed_ring(n, seed),
}


def _cmd_gen(args) -> int:
    try:
        model = _FAMILIES[args.family](args.n, args.seed)
    except ValueError as exc:  # too few vertices for the family
        raise BadArgumentError(str(exc)) from exc
    _write(model.to_json(), args.out)
    return EXIT_OK


def _cmd_oracle1(args) -> int:
    model = _load_model(args.model)
    graph = intersection_graph(model)
    result = has_shortest_path_1irs(graph, vertex_limit=args.limit,
                                    strict=args.strict)
    if result.exists_1irs:
        print("1-IRS exists", file=sys.stderr)
        print(witness_scheme(result.witness_order, result.witness_labels).to_json())
    else:
        print("no 1-IRS", file=sys.stderr)
        print('{"exists_1irs": false}')
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcroute",
        description="Interval routing schemes for circular-arc graph models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a routing scheme from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a scheme against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--scheme", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("route", help="simulate a route between two vertices")
    p.add_argument("--model", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("gen", help="generate an arc model")
    p.add_argument("--family", choices=list(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle1", help="brute-force 1-interval existence check")
    p.add_argument("--model", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_VERTEX_LIMIT)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_oracle1)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:  # no input error; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except RouteError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except ArcRouteError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (OSError, MemoryError) as exc:  # an unreadable file, or too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
