"""Command-line entry point.

Commands: build, mutate, path, euler, minors, check.  Exit codes: 0 ok,
1 verification failure, 2 input error, 3 internal error (a bug, never bad
input).  Large outputs (long series, long path traces) go to files, never
to stdout by default.

Each report is built in the module that computes its data: ``mesh``
(build, path --count-only), ``cluster`` (mutate), ``rigidpath`` (path),
``euler`` and ``reference`` (minors, check).  A command returns its report
(a text, the list of a text's pieces, or a dict that ``main`` writes with
``json.dumps(indent=1, sort_keys=True)``), its default file stem and
whether its checks passed; ``main`` writes it.

Each command imports the modules it uses when it runs, so ``--help``
loads no library module and ``mutate`` none of the path, Euler-series or
minors modules.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache

from .errors import ClusterKnitError, InputFormatError, strict_int

BIG_OUTPUT_LINES = 2000
BIG_OUTPUT_CHARS = 200_000


def read_json(path: str):
    """The JSON value in the file at ``path``.  Text that is not UTF-8,
    nested too deeply for the parser or with an integer literal that
    ``strict_int`` refuses for its length is an input error like any other
    unreadable JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=strict_int)
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from None
        except RecursionError:
            raise InputFormatError(f"{path} nests JSON too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # an integer literal too long
            raise InputFormatError(f"{path}: {exc}") from None


def load_terminal(args):
    """The terminal data (Q, t) given by the quiver file and ``--t``."""
    from . import mesh, quiver

    q = quiver.from_json(read_json(args.quiver))
    try:
        t = tuple(map(strict_int, args.t.split(",")))
    except ValueError:
        raise InputFormatError(f"--t must be comma-separated integers, got {args.t!r}") from None
    return mesh.validate_terminal(q, t)


def load_ordering(cat, spec: str):
    from . import mesh, quiver

    if spec == "canonical":
        return mesh.adapted_orderings(cat)
    if spec.startswith("file:"):
        pairs = read_json(spec[5:])
        ordering = [mesh.MeshVertex(i, a) for (i, a) in quiver.int_pairs(pairs, "an ordering")]
        mesh.validate_ordering(cat, ordering)
        return ordering
    raise ClusterKnitError(f"unknown ordering spec {spec!r}")


def emit(report, args, default_name: str) -> None:
    """Print ``report``, a text or a list of the pieces of one, and a
    newline, or write them to a file and print where: UTF-8 whatever the
    locale."""
    pieces = [report] if isinstance(report, str) else report
    if (args.out or sum(map(len, pieces)) > BIG_OUTPUT_CHARS
            or sum(p.count("\n") for p in pieces) > BIG_OUTPUT_LINES):
        with open(args.out or default_name, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
            fh.write("\n")
        pieces = [f"wrote {args.out}" if args.out else f"output too large for stdout; wrote {default_name}"]
    sys.stdout.flush()
    for piece in pieces:
        sys.stdout.buffer.write(piece.encode("utf-8", "surrogateescape"))
    sys.stdout.buffer.write(b"\n")
    sys.stdout.flush()


def cmd_build(args):
    from . import mesh

    cat = mesh.build_category(load_terminal(args))
    ordering = load_ordering(cat, args.ordering)
    if args.format == "dot":
        return mesh.to_dot(cat), "gamma_star", True
    return (mesh.to_json if args.format == "json" else mesh.text)(cat, ordering), "category", True


def cmd_mutate(args):
    from . import cluster

    seed = cluster.from_json(read_json(args.seed))
    return cluster.walk(seed, args.vertices, as_json=args.format == "json"), "mutation_trace", True


def cmd_path(args):
    from . import mesh

    td = load_terminal(args)
    cat = mesh.build_category(td)
    ordering, as_json = load_ordering(cat, args.ordering), args.format == "json"
    if args.count_only:
        return mesh.length_text(mesh.schedule_length(td), as_json), "path_report", True
    from . import cluster, rigidpath
    seed = cluster.initial_seed(cat, ordering, with_vars=not args.no_expand)
    res = rigidpath.run_path(seed, rigidpath.make_schedule(td))
    return (rigidpath.result_json if as_json else rigidpath.result_text)(res), "path_report", True


def cmd_euler(args):
    from . import euler, mesh

    cat = mesh.build_category(load_terminal(args))
    report = euler.json_text if args.format == "json" else euler.text
    return report(cat, load_ordering(cat, args.ordering), args.k), f"g_T{args.k}", True


def cmd_minors(args):
    from . import reference

    report = reference.minors_report(args.n, args.mode)
    text = report if args.format == "json" else reference.minors_text(report)
    return text, "minors_report", report["status"] == "PASS"


def cmd_check(args):
    from . import reference

    manifest = reference.run_checks(args.slow)
    text = manifest if args.format == "json" else reference.manifest_text(manifest)
    return text, "manifest", manifest["status"] == "PASS"


# -- driver -------------------------------------------------------------------


@cache  # one parser per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clusterknit",
        description="Exact mutation calculus on knitted translation quivers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fn, ordering=True, formats=("text", "json")):
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", help="write output to this file")
        if ordering:
            sp.add_argument(
                "--ordering",
                default="canonical",
                help="'canonical' or 'file:PATH' with a JSON list of [i,a]",
            )

    sp = sub.add_parser("build", help="build the category model for (Q, t)")
    sp.add_argument("quiver", help="quiver JSON file")
    sp.add_argument("--t", required=True, help="comma-separated levels")
    common(sp, cmd_build, formats=("text", "json", "dot"))

    sp = sub.add_parser("mutate", help="mutate a seed at a vertex sequence")
    sp.add_argument("seed", help="seed JSON file")
    sp.add_argument("vertices", nargs="+", type=strict_int)
    common(sp, cmd_mutate, ordering=False)

    sp = sub.add_parser("path", help="run the T_M -> T_M^vee schedule")
    sp.add_argument("quiver")
    sp.add_argument("--t", required=True)
    sp.add_argument(
        "--no-expand",
        action="store_true",
        help="skip Laurent expansion (trackers and labels only)",
    )
    sp.add_argument(
        "--count-only",
        action="store_true",
        help="print only the schedule length",
    )
    common(sp, cmd_path)

    sp = sub.add_parser("euler", help="generating function g_{T_k}")
    sp.add_argument("quiver")
    sp.add_argument("--t", required=True)
    sp.add_argument("--k", required=True, type=strict_int)
    common(sp, cmd_euler)

    sp = sub.add_parser("minors", help="type-A minor dictionary and checks")
    sp.add_argument("--n", type=strict_int, default=4)
    sp.add_argument("--mode", choices=("table", "eta", "cross", "all"), default="all")
    common(sp, cmd_minors, ordering=False)

    sp = sub.add_parser("check", help="run the built-in reference checks")
    sp.add_argument("--slow", action="store_true", help="include the large series")
    common(sp, cmd_check, ordering=False)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # results may pass the int-text digit limit; input stays bounded by strict_int
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # None: no limit before 3.10.7
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        report, stem, passed = args.fn(args)
        if isinstance(report, dict):
            report = json.dumps(report, indent=1, sort_keys=True)
        emit(report, args, f"{stem}.{'txt' if args.format == 'text' else args.format}")
    except (ClusterKnitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: report it as one, with its traceback
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0 if passed else 1


def run() -> None:
    """``main``, then exit with its code: the heap frozen first, so that
    the collections of interpreter shutdown walk nothing."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
