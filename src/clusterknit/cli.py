"""Command-line entry point.

Commands: build, mutate, path, euler, minors, check.  Exit codes: 0 ok,
1 verification failure, 2 input error, 3 internal error (a bug, never bad
input).  Large outputs (long series, long path traces) go to files, never
to stdout by default.

Each command imports the modules it uses when it runs, so ``--help``
loads no library module and ``mutate`` none of the path, Euler-series or
minors modules.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import ClusterKnitError, InputFormatError, strict_int

BIG_OUTPUT_LINES = 2000
BIG_OUTPUT_CHARS = 200_000


def read_json(path: str):
    """The JSON value in the file at ``path``.  Text that is not UTF-8, or
    nested too deeply for the parser, is an input error like any other
    unreadable JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from None
        except RecursionError:
            raise InputFormatError(f"{path} nests JSON too deeply") from None


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


def emit(text: str, args, default_name: str) -> None:
    out = getattr(args, "out", None)
    if not out and text.count("\n") <= BIG_OUTPUT_LINES and len(text) <= BIG_OUTPUT_CHARS:
        print(text)
        return
    with open(out or default_name, "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {out}" if out else f"output too large for stdout; wrote {default_name}")


# -- build ------------------------------------------------------------------


def cmd_build(args) -> int:
    from . import jsontext, mesh

    td = load_terminal(args)
    cat = mesh.build_category(td)
    ordering = load_ordering(cat, args.ordering)
    if args.format == "dot":
        emit(mesh.to_dot(cat), args, "gamma_star.dot")
        return 0
    d_delta = list(mesh.delta_dims(cat, mesh.validate_ordering(cat, ordering)))
    if args.format == "json":
        data = mesh.to_json(cat)
        data["d_delta"] = d_delta
        data["ordering"] = [list(v) for v in ordering]
        emit(jsontext.dumps(data), args, "category.json")
        return 0
    lines = [f"category on {cat.r} vertices, t = {','.join(map(str, td.t))}"]
    lines.append("vertices (canonical order): " + " ".join(map(repr, cat.vertices)))
    star = ", ".join(
        f"{cat.vertices[s - 1]!r}->{cat.vertices[t - 1]!r}"
        for (s, t) in cat.gammaMStar.arrows
    )
    lines.append(f"Gamma* arrows: {star}")
    lines.append("dimension vectors:")
    for v in cat.vertices:
        lines.append(f"  {v!r}: {list(cat.dims[v].coords)}")
    lines.append("hom table (rows = source, canonical order):")
    for x, row in zip(cat.vertices, cat.hom_table):
        lines.append(f"  {x!r}: {list(row)}")
    lines.append(f"d_Delta (ordering): {d_delta}")
    emit("\n".join(lines), args, "category.txt")
    return 0


# -- mutate -----------------------------------------------------------------


def cmd_mutate(args) -> int:
    from . import cluster, exchange

    cur = cluster.from_json(read_json(args.seed))
    memo = cluster.ExchangeMemo()  # this walk's relations, dropped on return
    steps = []  # each step's output is made as the walk goes, so no old seed is kept
    for k in args.vertices:
        sides = exchange.arrows_at(cur.matrix, k)
        new = cluster.mutate_seed(cur, k, sides=sides, memo=memo)
        if args.format == "json":
            steps.append({"vertex": k, "seed": cluster.to_json(new)})
        else:
            steps.append(cluster.trace_line(cur, k, new, sides, memo))
        cur = new
    if args.format == "json":
        from . import jsontext

        data = {"steps": steps, "final": cluster.to_json(cur)}
        emit(jsontext.dumps(data), args, "mutation_trace.json")
        return 0
    emit("\n".join(steps), args, "mutation_trace.txt")
    return 0


# -- path -------------------------------------------------------------------


def cmd_path(args) -> int:
    from . import mesh

    td = load_terminal(args)
    cat = mesh.build_category(td)
    ordering = load_ordering(cat, args.ordering)
    if args.count_only:
        length = mesh.schedule_length(td)
        if args.format == "json":
            emit(json.dumps({"length": length}), args, "path_report.json")
        else:
            emit(f"schedule length r(M) = {length}", args, "path_report.txt")
        return 0
    from . import cluster, jsontext, rigidpath
    sch = rigidpath.make_schedule(td)
    seed = cluster.initial_seed(cat, ordering, with_vars=not args.no_expand)
    res = rigidpath.run_path(seed, sch)
    if args.format == "json":
        emit(jsontext.dumps(rigidpath.result_to_json(res)), args, "path_report.json")
        return 0
    lines = [f"schedule length r(M) = {len(sch)}"]
    for st, (old, new, relation) in zip(res.steps, rigidpath.relation_texts(res.steps)):
        lines.append(f"step {st.index}: {old} -> {new}  {relation}  Max-dominated: {st.dominated}")
    lines.append("final labels: " + " ".join(repr(l) for l in res.seed.labels))
    emit("\n".join(lines), args, "path_report.txt")
    return 0


# -- euler ------------------------------------------------------------------


def cmd_euler(args) -> int:
    from . import euler, mesh

    td = load_terminal(args)
    cat = mesh.build_category(td)
    ordering = load_ordering(cat, args.ordering)
    if args.format == "json":
        emit(euler.json_text(cat, ordering, args.k), args, f"g_T{args.k}.json")
    else:
        emit(euler.text(cat, ordering, args.k), args, f"g_T{args.k}.txt")
    return 0


# -- minors -----------------------------------------------------------------


def minors_line(check: dict) -> str:
    """The text line of one entry of the ``minors`` report."""
    if check["kind"] == "table":
        return f"table ({check['interval']}): rows={check['rows']} cols={check['cols']} minor={check['minor']}"
    if check["kind"] == "eta":
        extra = " (extrapolated)" if check["extrapolated"] else ""
        return f"eta {tuple(check['interval'])}: {check['status']}{extra}"
    return f"cross k={check['k']}: {check['status']}"


def cmd_minors(args) -> int:
    from . import jsontext, reference

    report = reference.minors_report(args.n, args.mode)
    if args.format == "json":
        emit(jsontext.dumps(report), args, "minors_report.json")
    else:
        lines = [*map(minors_line, report["checks"]), f"overall: {report['status']}"]
        emit("\n".join(lines), args, "minors_report.txt")
    return 0 if report["status"] == "PASS" else 1


# -- check: verification manifest --------------------------------------------


def cmd_check(args) -> int:
    from . import jsontext, reference

    manifest = {"checks": [], "status": "PASS"}
    for name, fn in reference.CHECKS + (reference.SLOW_CHECKS if args.slow else []):
        try:
            passed = bool(fn())
            detail = ""
        except Exception as exc:  # a crash is a failure with a reason
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
        manifest["checks"].append(
            {"name": name, "status": "PASS" if passed else "FAIL", "detail": detail}
        )
        if not passed:
            manifest["status"] = "FAIL"
    if args.format == "json":
        emit(jsontext.dumps(manifest), args, "manifest.json")
    else:
        lines = [
            f"{c['status']}  {c['name']}" + (f"  ({c['detail']})" if c["detail"] else "")
            for c in manifest["checks"]
        ]
        emit("\n".join(lines + [f"overall: {manifest['status']}"]), args, "manifest.txt")
    return 0 if manifest["status"] == "PASS" else 1


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
    try:
        return args.fn(args)
    except (ClusterKnitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: report it as one, with its traceback
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
