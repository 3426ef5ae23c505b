"""What a fresh process loads: each command imports only the modules it
uses, and the package loads its submodules on first attribute access.
The entry point freezes the heap before it exits."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEAVY = {"euler", "reference", "rigidpath", "minors"}
STDLIB = ("dataclasses", "inspect", "fractions")  # costly to import, and unneeded


# Runs the CLI module as ``python -m`` does, then prints its exit code, the
# number of objects frozen, the clusterknit submodules in sys.modules and
# which of STDLIB are there.  (``-X importtime`` cannot tell: it does not
# log a submodule that ``from . import name`` loads.)
CLI = f"""
import gc, json, runpy, sys
sys.argv[0] = "clusterknit"
try:
    runpy.run_module("clusterknit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
names = sorted(m for m in sys.modules if m.startswith("clusterknit.") or m in {STDLIB})
print(json.dumps([code, gc.get_freeze_count(), names]))
"""


def python_c(code: str, args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )


def run_cli(args, cwd) -> tuple[str, set]:
    """Run the CLI on ``args`` in a fresh process: its standard output
    before the report, and the clusterknit submodules (without the package
    prefix) and STDLIB modules it loaded.  It must exit 0 with the heap
    frozen."""
    proc = python_c(CLI, args, cwd)
    out, _, report = proc.stdout.rstrip("\n").rpartition("\n")
    code, frozen, names = json.loads(report)
    assert code == 0 and frozen > 0, (frozen, proc.stderr)
    return out, {n.removeprefix("clusterknit.") for n in names}


def test_help_loads_only_the_cli_and_errors(tmp_path):
    out, loaded = run_cli(["--help"], tmp_path)
    assert "usage: clusterknit" in out
    assert loaded == {"errors"}  # the cli itself runs as __main__


def test_mutate_loads_no_path_euler_or_minors_module(tmp_path):
    """A text walk on a labelled seed loads neither the knitting (``mesh``,
    ``quiver``: labels come from ``labels``) nor the JSON writer."""
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({
        "r": 2,
        "matrix": {"b": [[0, 1], [-1, 0]], "frozen": []},
        "vars": [{"1,0": "1"}, {"0,1": "1"}],
        "labels": [[1, 0, 1], [2, 1, 1]],
    }))
    out, loaded = run_cli(["mutate", str(seed), "1", "2"], tmp_path)
    assert out.startswith("mu_1  T_{1,[0,1]}' * T_{1,[0,1]} = 1 + T_{2,[1,1]}  var = ")
    assert {"cluster", "laurent", "labels"} <= loaded and not loaded & HEAVY
    assert not loaded & {"mesh", "quiver", "seedtext", "dataclasses"}, loaded


def test_json_reports_written_from_their_walks_load_no_json_writer(tmp_path):
    """``mutate`` and ``path`` write their JSON reports from the texts
    their walks make, a seed's through ``seedtext``; ``euler`` writes its
    own text, and ``build``, ``minors`` and ``check`` a report dict that
    the standard encoder writes."""
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({
        "r": 2,
        "matrix": {"b": [[0, 1], [-1, 0]], "frozen": []},
        "vars": [{"1,0": "1"}, {"0,1": "1"}],
        "labels": [[1, 0, 1], [2, 1, 1]],
    }))
    quiver = tmp_path / "kronecker3.json"
    quiver.write_text(json.dumps({"n": 3, "arrows": [[1, 2], [1, 2], [2, 3]]}))
    terminal = [str(quiver), "--t", "2,1,1"]
    for args, writes_seeds in (
        (["mutate", str(seed), "1", "2"], True),
        (["path", *terminal], True),
        (["euler", *terminal, "--k", "2"], False),
        (["build", *terminal], False),
        (["minors", "--n", "3"], False),
        (["check"], False),
    ):
        out, loaded = run_cli(args + ["--format", "json"], tmp_path)
        assert json.loads(out)
        assert ("seedtext" in loaded) == writes_seeds and "jsontext" not in loaded, (args, loaded)


def test_the_package_loads_submodules_on_first_access(tmp_path):
    code = (
        "import sys, clusterknit\n"
        "before = sorted(m for m in sys.modules if m.startswith('clusterknit.'))\n"
        "g = clusterknit.euler.g_module\n"
        "try:\n"
        "    clusterknit.no_such_module\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(before, g.__module__, 'clusterknit.reference' in sys.modules, missing)\n"
    )
    proc = python_c(code, [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "[] clusterknit.euler False module 'clusterknit' has no attribute 'no_such_module'"
    )


def test_euler_loads_no_laurent_cluster_path_or_minors_module(tmp_path):
    quiver = tmp_path / "kronecker3.json"
    quiver.write_text(json.dumps({"n": 3, "arrows": [[1, 2], [1, 2], [2, 3]]}))
    for fmt in ("text", "json"):
        out, loaded = run_cli(["euler", str(quiver), "--t", "2,1,1", "--k", "2", "--format", fmt], tmp_path)
        assert out.startswith("{") if fmt == "json" else "w[" in out
        assert "euler" in loaded
        assert not loaded & {"packing", "laurent", "cluster", "exchange", "rigidpath", "minors", "reference"}, loaded
        assert not loaded & {"dataclasses", "fractions"}, loaded


def test_path_without_expansion_loads_no_laurent_or_dataclasses(tmp_path):
    """A tracker-only path follows labels, matrices and trackers: the
    Laurent kernel is never called, so it is never loaded, while the
    packed tracker rows load the slot layout."""
    quiver = tmp_path / "kronecker3.json"
    quiver.write_text(json.dumps({"n": 3, "arrows": [[1, 2], [1, 2], [2, 3]]}))
    out, loaded = run_cli(["path", str(quiver), "--t", "3,3,2", "--no-expand", "--format", "json"], tmp_path)
    assert json.loads(out)["length"] == 15
    assert {"cluster", "exchange", "rigidpath", "packing"} <= loaded
    assert not loaded & {"laurent", "dataclasses", "inspect"}, loaded


def test_path_count_only_loads_no_cluster_exchange_rigidpath_or_laurent(tmp_path):
    """The schedule length is a sum over t: counting it builds the category
    and checks the ordering, and loads none of the path modules."""
    quiver = tmp_path / "kronecker3.json"
    quiver.write_text(json.dumps({"n": 3, "arrows": [[1, 2], [1, 2], [2, 3]]}))
    for fmt, want in (("json", '{"length": 15}'), ("text", "schedule length r(M) = 15")):
        out, loaded = run_cli(["path", str(quiver), "--t", "3,3,2", "--count-only", "--format", fmt], tmp_path)
        assert out == want
        assert "mesh" in loaded
        assert not loaded & {"cluster", "exchange", "rigidpath", "packing", "laurent"}, loaded


def test_minors_loads_no_cluster_or_exchange_module(tmp_path):
    """The minors checks expand interval minors through ``rigidpath`` but
    never mutate a seed, so neither the seed nor the matrix module loads."""
    out, loaded = run_cli(["minors", "--n", "3"], tmp_path)
    assert out.endswith("overall: PASS")
    assert {"reference", "rigidpath", "minors"} <= loaded
    assert not loaded & {"cluster", "exchange"}, loaded


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path, capsys):
    """Only the entry point freezes: ``main`` returns its code and leaves
    the collector as it found it, also on an input error."""
    from clusterknit import cli

    before = gc.get_freeze_count()
    assert cli.main(["minors", "--n", "3", "--mode", "table"]) == 0
    assert cli.main(["mutate", str(tmp_path / "missing.json"), "1"]) == 2
    assert gc.get_freeze_count() == before
    assert "error: FileNotFoundError" in capsys.readouterr().err
