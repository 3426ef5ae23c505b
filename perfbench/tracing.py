"""Outside-in per-layer tracing.

A traced job runs in a fresh process started as

    python perfbench/tracing.py SPAN_FILE JOB_NAME CLI_ARG...

which wraps the public functions of every layer module (and the ring
operators of ``LaurentPoly``) before calling ``clusterknit.cli.main``.
Each call becomes a span [name, parent span, start, end, error, counts],
kept in memory and written to SPAN_FILE when the job ends.  The parent
process turns span files into per-function and per-layer totals.

A span's self time is its duration minus the durations of its child spans
(spans nest strictly: one thread).  Job time outside every span is the
``cli`` layer: argument parsing, JSON and text formatting, output writing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("quiver", "mesh", "exchange", "laurent", "cluster", "rigidpath", "euler", "minors")

# LaurentPoly methods that callers reach through operators, and the name of
# their spans.  Names imported by value are patched in every module.
LAURENT_METHODS = {"__mul__": "mul", "__add__": "add", "__sub__": "sub",
                   "__neg__": "neg", "__pow__": "pow"}
RENAMED = {"laurent.exact_div": "laurent.div"}


def _matrix_counts(args, result):
    b = args[0].b
    size = len(b) * len(b)
    return (size - sum(row.count(0) for row in b), size)


# Counts taken inside the span of a call, from its arguments and result.
COUNTERS = {
    "laurent.mul": lambda a, res: (len(a[0].terms) * len(a[1].terms), len(res.terms)),
    "laurent.div": lambda a, res: (len(a[0].terms), len(res.terms)),
    "laurent.add": lambda a, res: (len(res.terms),),
    "euler.f_action": lambda a, res: (len(a[0].terms), len(res.terms)),
    "exchange.mutate_matrix": _matrix_counts,
    "rigidpath.run_path": lambda a, res: (len(res.steps),),
    "mesh.build_category": lambda a, res: (res.r,),
}


class Recorder:
    """Spans of one job, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1], 0.0, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(args, result)
                return result
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every public function of each layer and patch every binding of
    it in the package, including names imported by value."""
    importlib.import_module("clusterknit.cli")
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"clusterknit.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                span = f"{layer}.{name}"
                wrappers[obj] = recorder.wrap(RENAMED.get(span, span), obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "clusterknit" or mod_name.startswith("clusterknit."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
    cls = importlib.import_module("clusterknit.laurent").LaurentPoly
    for method, short in LAURENT_METHODS.items():
        setattr(cls, method, recorder.wrap(f"laurent.{short}", vars(cls)[method]))


def run_traced(span_file: str, job: str, cli_args: list) -> int:
    recorder = Recorder()
    install(recorder)
    from clusterknit import cli

    start = perf_counter()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    end = perf_counter()
    with open(span_file, "w") as fh:
        json.dump({"job": job, "start": start, "end": end,
                   "names": recorder.names, "spans": recorder.spans}, fh)
    return code if isinstance(code, int) else 1


# -- aggregation (parent side) --------------------------------------------------


def empty_row() -> dict:
    return {"calls": 0, "self_s": 0.0, "errors": 0, "sum": [], "max": []}


def _add(acc: dict, row: dict) -> None:
    """Add ``row`` into ``acc``: counts sum elementwise, maxima stay maxima."""
    acc["calls"] += row["calls"]
    acc["self_s"] += row["self_s"]
    acc["errors"] += row["errors"]
    if row["sum"]:
        acc["sum"] = [a + b for a, b in zip(acc["sum"] or [0] * len(row["sum"]), row["sum"])]
        acc["max"] = [max(a, b) for a, b in zip(acc["max"] or [0] * len(row["max"]), row["max"])]


def profile(record: dict) -> dict:
    """Per-span-name totals of one job: calls, self_s, errors, and the
    elementwise sum and max of its counts.  Also ``job_s`` (time inside
    ``cli.main``) and ``covered_s`` (time under some span)."""
    spans = record["spans"]
    child = [0.0] * len(spans)
    covered = 0.0
    for _, parent, start, end, _, _ in spans:
        if parent < 0:
            covered += end - start
        else:
            child[parent] += end - start
    funcs: dict = {}
    for sid, (index, _, start, end, error, counts) in enumerate(spans):
        _add(funcs.setdefault(record["names"][index], empty_row()),
             {"calls": 1, "self_s": end - start - child[sid], "errors": error,
              "sum": counts or [], "max": counts or []})
    return {"job_s": record["end"] - record["start"], "covered_s": covered, "funcs": funcs}


def merge(profiles: list) -> dict:
    """Totals over several jobs, in the shape ``profile`` returns."""
    total = {"job_s": 0.0, "covered_s": 0.0, "funcs": {}}
    for prof in profiles:
        total["job_s"] += prof["job_s"]
        total["covered_s"] += prof["covered_s"]
        for name, row in prof["funcs"].items():
            _add(total["funcs"].setdefault(name, empty_row()), row)
    return total


def layer_totals(prof: dict) -> dict:
    """calls, self_s and errors per layer; ``cli`` holds the job time that
    no span covers."""
    layers = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in LAYERS}
    for name, row in prof["funcs"].items():
        acc = layers[name.split(".")[0]]
        for key in acc:
            acc[key] += row[key]
    layers["cli"] = {"calls": 0, "self_s": prof["job_s"] - prof["covered_s"], "errors": 0}
    return layers


def table(prof: dict) -> str:
    """The per-function and per-layer table, largest self time first."""
    job_s = prof["job_s"] or 1.0
    lines = [f"{'span':<34}{'calls':>10}{'self_s':>11}{'share':>8}{'errors':>8}"]
    rows = sorted(prof["funcs"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        lines.append(f"{name:<34}{row['calls']:>10}{row['self_s']:>11.4f}"
                     f"{row['self_s'] / job_s:>8.1%}{row['errors']:>8}")
    lines.append("")
    layers = sorted(layer_totals(prof).items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in layers:
        lines.append(f"{name:<34}{row['calls']:>10}{row['self_s']:>11.4f}"
                     f"{row['self_s'] / job_s:>8.1%}{row['errors']:>8}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[3:]))
