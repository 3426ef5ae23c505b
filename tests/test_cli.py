import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import quiver_to_json

from clusterknit import cli, cluster, euler, quiver, reference
from clusterknit.mesh import MeshVertex


def quiver_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(quiver_to_json(reference.quiver(name))))
    return str(path)


@pytest.fixture
def kron_file(tmp_path):
    return quiver_file(tmp_path, "kronecker3")


@pytest.fixture
def five_file(tmp_path):
    return quiver_file(tmp_path, "five_vertex")


@pytest.fixture
def ordering_file(tmp_path):
    """The worked ordering of kronecker3 as an ``--ordering`` argument."""
    path = tmp_path / "ord.json"
    path.write_text(json.dumps([[v.i, v.a] for v in reference.WORKED_ORDERING]))
    return f"file:{path}"


def test_build_text(kron_file, capsys):
    assert cli.main(["build", kron_file, "--t", "2,1,1"]) == 0
    out = capsys.readouterr().out
    assert "category on 7 vertices" in out
    assert "(1,2): [9, 6, 2]" in out
    assert "d_Delta" in out and "23" in out


def test_build_json_round_trip(kron_file, capsys):
    assert cli.main(["build", kron_file, "--t", "2,1,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dims"]["(1,2)"] == [9, 6, 2]
    assert data["d_delta"][:3] == [1, 3, 4]


def test_build_zero_levels(kron_file, capsys):
    assert cli.main(["build", kron_file, "--t", "0,0,0"]) == 0
    assert "category on 3 vertices" in capsys.readouterr().out


def test_build_bad_t(kron_file, capsys):
    assert cli.main(["build", kron_file, "--t", "0,5,1"]) == 2
    assert "TerminalConstraintError" in capsys.readouterr().err


# int() takes all but the first three too: "1_0" as 10, " 1" as 1 and
# Arabic-Indic digits as their values.
@pytest.mark.parametrize("t", ["2,x,1", "2,1.0,1", "2,,1", "1_0,0,0", "2, 1,1", "+2,1,1", "\u0662,1,1"])
def test_build_non_integer_t_exits_2(kron_file, capsys, t):
    assert cli.main(["build", kron_file, "--t", t]) == 2
    err = capsys.readouterr().err
    assert "InputFormatError" in err and "--t" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["minors", "--n", " +3", "--mode", "table"],
        ["minors", "--n", "2_0"],
        ["euler", "QUIVER", "--t", "2,1,1", "--k", "0_1"],
        ["euler", "QUIVER", "--t", "2,1,1", "--k", "+1"],
        ["mutate", "seed.json", "1", " 2"],
        ["mutate", "seed.json", "1_0"],
        ["mutate", "seed.json", "٢"],
    ],
)
def test_integer_arguments_are_read_strictly(kron_file, monkeypatch, capsys, argv):
    """An integer argument is spelled as JSON spells one: argparse refuses
    any other spelling that int() takes, so the command never runs (a
    command returns its exit code; only the parser exits).  ``minors --n
    2_0`` would otherwise start an n = 20 report."""

    def refused(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(reference, "minors_report", refused)
    argv = [kron_file if a == "QUIVER" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid strict_int value" in err


def test_build_dot(kron_file, capsys):
    assert cli.main(["build", kron_file, "--t", "2,1,1", "--format", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out
    # only build draws a graph; the other commands refuse the format
    with pytest.raises(SystemExit) as exc:
        cli.main(["minors", "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


def test_build_ordering_file(kron_file, ordering_file, capsys):
    argv = ["build", kron_file, "--t", "2,1,1", "--ordering", ordering_file]
    assert cli.main(argv) == 0


def test_mutate_rank2(tmp_path, capsys):
    seed = {
        "r": 2,
        "matrix": {"b": [[0, 1], [-1, 0]], "frozen": []},
        "vars": [{"1,0": "1"}, {"0,1": "1"}],
    }
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(seed))
    assert cli.main(["mutate", str(spath), "1"]) == 0
    out = capsys.readouterr().out
    assert "y1^-1*y2 + y1^-1" in out


def test_mutate_tracker_line(tmp_path, kronecker3, capsys):
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(cluster.to_json(cluster.initial_seed(kronecker3))))
    k = kronecker3.pos(MeshVertex(1, 1)) + 1
    assert cli.main(["mutate", str(spath), str(k)]) == 0
    out = capsys.readouterr().out
    assert "d = [13, 8, 2, 4, 2, 0, 0]" in out


def test_mutate_frozen_exit_code(tmp_path, kronecker3, capsys):
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(cluster.to_json(cluster.initial_seed(kronecker3))))
    assert cli.main(["mutate", str(spath), "1"]) == 2


@pytest.mark.parametrize("vertex", ["0", "8"])
def test_mutate_vertex_out_of_range_exits_2(tmp_path, kronecker3, capsys, vertex):
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(cluster.to_json(cluster.initial_seed(kronecker3))))
    assert kronecker3.r == 7
    assert cli.main(["mutate", str(spath), vertex]) == 2
    assert "VertexIndexError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed, detail",
    [
        ({"r": 3, "matrix": {"b": [[0, 1], [-1, 0]], "frozen": []}}, "r = 3"),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]], "frozen": []}, "vars": [{"1,0": "1"}]},
            "vars must be a list of 2 entries",
        ),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]], "frozen": []}, "dim_trackers": [[1, "a"], [0, 1]]},
            "a row of dim_trackers must hold integers",
        ),
        ({"r": 2, "matrix": {"b": 5}}, "matrix b must be a square list of integer rows"),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]], "frozen": [3]}},
            "frozen must be a list of indices in 1..2",
        ),
        ({"r": 2, "matrix": {"b": [[0, 1], [1, 0]], "frozen": []}}, "skew-symmetric"),
        ([1, 2], "a seed must be an object with a matrix and an integer r"),
        ({"matrix": {"b": [[0, 1], [-1, 0]]}}, "a seed must be an object with a matrix and an integer r"),
        ({"r": 2}, "a seed must be an object with a matrix and an integer r"),
        ({"r": "2", "matrix": {"b": [[0, 1], [-1, 0]]}}, "a seed must be an object with a matrix and an integer r"),
        ({"r": 2.0, "matrix": {"b": [[0, 1], [-1, 0]]}}, "a seed must be an object with a matrix and an integer r"),
        # these failed in int() and reached exit 2 only as a bare ValueError
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"a,b": "1"}, {"0,1": "1"}]},
            "a term is not integer exponents and coefficient",
        ),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"1,0": "1.5"}, {"0,1": "1"}]},
            "a term is not integer exponents and coefficient",
        ),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"1,0": "9" * 5000}, {"0,1": "1"}]},
            "a term is not integer exponents and coefficient",
        ),
        # these loaded through int()'s wider spelling: (10, 0), (1, 0) and 10
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"1_0,0": "1"}, {"0,1": "1"}]},
            "a term is not integer exponents and coefficient",
        ),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{" 1, 0": "1"}, {"0,1": "1"}]},
            "a term is not integer exponents and coefficient",
        ),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"1,0": "1_0"}, {"0,1": "\u0661"}]},
            "a term is not integer exponents and coefficient",
        ),
        # two keys that spell one exponent vector: the reader kept only the last
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"1,0": "1"}, {"0,1": "1", "00,1": "2"}]},
            "two terms spell the exponent vector '00,1'",
        ),
        (
            {"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}, "vars": [{"1,0": "1"}, {"0,1": "1", "-0,1": "2"}]},
            "two terms spell the exponent vector '-0,1'",
        ),
    ],
)
def test_mutate_rejects_an_inconsistent_seed(tmp_path, capsys, seed, detail):
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(seed))
    assert cli.main(["mutate", str(spath), "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SeedFormatError: ") and detail in err


def test_mutate_widens_past_the_first_slot_width(tmp_path, capsys):
    """An exponent of 40,000 does not fit a 16-bit slot: the kernel re-packs
    wider and prints what the tuple kernel printed."""
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    seed = json.loads(pins.read_text())["seeds"]["fan-a3"]
    seed["vars"][3] = {"0,0,0,40000,0,0": "1"}
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(seed))
    assert cli.main(["mutate", str(spath), "4"]) == 0
    assert capsys.readouterr().out == (
        "mu_4  T_{2,[1,1]}' * T_{2,[1,1]} = T_{1,[0,1]}*T_{3,[0,1]} + "
        "T_{2,[0,1]}*T_{1,[1,1]}*T_{3,[1,1]}  "
        "var = y1*y4^-40000*y5*y6 + y2*y3*y4^-40000  "
        "d = [1, 1, 1, 2, 1, 1]  dDelta = [1, 0, 0, 0, 1, 1]\n"
    )


def test_path_five_vertex(five_file, capsys):
    assert cli.main(["path", five_file, "--t", "3,2,3,1,2", "--no-expand"]) == 0
    out = capsys.readouterr().out
    assert "r(M) = 19" in out
    assert out.count("step ") == 19
    assert "T_{1,[0,3]}" in out


def test_path_count_only_e8(tmp_path, capsys):
    path = quiver_file(tmp_path, "e8")
    t = ",".join(["14"] * 8)
    assert cli.main(["path", path, "--t", t, "--no-expand", "--count-only"]) == 0
    assert "r(M) = 840" in capsys.readouterr().out


def test_path_count_only(kron_file, capsys):
    assert cli.main(["path", kron_file, "--t", "2,1,1", "--count-only"]) == 0
    assert capsys.readouterr().out == "schedule length r(M) = 5\n"
    argv = ["path", kron_file, "--t", "2,1,1", "--count-only"]
    assert cli.main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"length": 5}
    assert cli.main(argv + ["--ordering", "bogus"]) == 2
    assert "unknown ordering spec 'bogus'" in capsys.readouterr().err


def test_path_empty_schedule(kron_file, capsys):
    assert cli.main(["path", kron_file, "--t", "0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "r(M) = 0" in out and "step " not in out


def test_path_json(kron_file, capsys):
    assert cli.main(["path", kron_file, "--t", "2,1,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["length"] == 5
    assert len(data["steps"]) == 5


def test_euler_small(kron_file, capsys):
    assert cli.main(["euler", kron_file, "--t", "2,1,1", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "w[1]"


def test_euler_worked_ordering(kron_file, ordering_file, capsys):
    argv = ["euler", kron_file, "--t", "2,1,1", "--k", "2", "--ordering", ordering_file]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == "2·w[2,1,1]"


def test_euler_json_to_file(kron_file, ordering_file, tmp_path):
    """``euler --format json`` writes what json.dumps(..., indent=0,
    sort_keys=True) wrote over the series' JSON object."""
    out = tmp_path / "g5.json"
    argv = ["euler", kron_file, "--t", "2,1,1", "--k", "5", "--ordering", ordering_file, "--format", "json"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    g5 = euler.g_module(reference.category("kronecker3"), reference.WORKED_ORDERING, 5)
    assert out.read_text() == json.dumps(euler.to_json(g5), indent=0, sort_keys=True) + "\n"


def test_euler_402_to_file(kron_file, ordering_file, tmp_path, capsys):
    out = tmp_path / "g5.txt"
    assert (
        cli.main(
            [
                "euler", kron_file, "--t", "2,1,1", "--k", "5",
                "--ordering", ordering_file, "--out", str(out),
            ]
        )
        == 0
    )
    text = out.read_text()
    assert text.count("w[") == reference.G5_WORDS


@pytest.mark.parametrize("k", ["0", "99"])
def test_euler_k_out_of_range_exits_2(kron_file, capsys, k):
    assert cli.main(["euler", kron_file, "--t", "2,1,1", "--k", k]) == 2
    assert "SummandIndexError" in capsys.readouterr().err


def test_minors_n4(capsys):
    assert cli.main(["minors", "--n", "4", "--mode", "eta"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out and "FAIL" not in out


def test_minors_n2_trivial(capsys):
    assert cli.main(["minors", "--n", "2", "--mode", "all"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_minors_below_two_exits_2_in_every_mode(n, capsys):
    """Every mode refuses n < 2 with one message, before building anything."""
    errs = set()
    for mode in ("table", "eta", "cross", "all"):
        assert cli.main(["minors", "--n", str(n), "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errs.add(err)
    assert errs == {f"error: TooSmallError: need at least 2 vertices, got {n}\n"}


def test_minors_table_json(capsys):
    assert cli.main(["minors", "--n", "4", "--mode", "table", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    kinds = {c["kind"] for c in data["checks"]}
    assert kinds == {"table"} and len(data["checks"]) == 10


def test_check_manifest(capsys):
    assert cli.main(["check", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "PASS"
    names = {c["name"] for c in data["checks"]}
    assert "euler_series" in names and "minor_dictionary" in names


CHECK_LINES = [f"PASS  {name}" for (name, _) in reference.CHECKS] + ["overall: PASS"]


def test_check_text(capsys):
    assert cli.main(["check"]) == 0
    assert capsys.readouterr().out.splitlines() == CHECK_LINES


def test_check_text_to_file(tmp_path, capsys):
    """``check --out`` writes the text manifest to the file, not to stdout."""
    out = tmp_path / "manifest.txt"
    assert cli.main(["check", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == "\n".join(CHECK_LINES) + "\n"


def test_large_output_goes_to_the_default_file(tmp_path, monkeypatch, capsys):
    """Output past BIG_OUTPUT_LINES lines is written to the command's
    default file, not to stdout, with the bytes an ``--out`` run writes."""
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(json.loads(pins.read_text())["seeds"]["fan-a3"]))
    walk = [str(k) for k in (4, 5, 6) * 400]
    walk += walk[::-1]  # 2,400 steps, one trace line each
    monkeypatch.chdir(tmp_path)
    assert cli.main(["mutate", str(seed), *walk]) == 0
    assert capsys.readouterr().out == "output too large for stdout; wrote mutation_trace.txt\n"
    out = tmp_path / "given.txt"
    assert cli.main(["mutate", str(seed), *walk, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    text = (tmp_path / "mutation_trace.txt").read_text()
    assert text == out.read_text() and text.count("\n") == len(walk) > cli.BIG_OUTPUT_LINES


class Uncopied(str):
    """A report text that fails if it is copied with something appended."""

    def __add__(self, other):
        raise AssertionError("the report was copied")


@pytest.mark.parametrize("to_file", [False, True])
def test_emit_writes_the_report_then_its_newline(to_file, tmp_path, capsys):
    """``emit`` writes a text, or the list of its pieces, and then a
    newline, to stdout or to a file: the same UTF-8 bytes either way, and
    never by building the text plus its newline."""
    out = tmp_path / "out.txt"
    args = argparse.Namespace(out=str(out) if to_file else None)
    for report in (Uncopied("a\nb·c"), ["a\n", "b", "·c"]):
        cli.emit(report, args, "unused.txt")
        printed = capsys.readouterr().out
        if to_file:
            assert printed == f"wrote {out}\n" and out.read_bytes() == "a\nb·c\n".encode()
        else:
            assert printed == "a\nb·c\n"


# argv (QUIVER and SEED stand for input files), format, default file name
DEFAULT_FILES = [
    *[(["build", "QUIVER", "--t", "2,1,1"], fmt, name)
      for fmt, name in (("text", "category.txt"), ("json", "category.json"), ("dot", "gamma_star.dot"))],
    *[(argv, fmt, f"{stem}.{ext}") for argv, stem in (
        (["mutate", "SEED", "4", "5", "6"], "mutation_trace"),
        (["path", "QUIVER", "--t", "2,1,1"], "path_report"),
        (["path", "QUIVER", "--t", "2,1,1", "--count-only"], "path_report"),
        (["euler", "QUIVER", "--t", "2,1,1", "--k", "3"], "g_T3"),
        (["minors", "--n", "3"], "minors_report"),
        (["check"], "manifest"),
    ) for fmt, ext in (("text", "txt"), ("json", "json"))],
]


@pytest.mark.parametrize("argv, fmt, name", DEFAULT_FILES, ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_every_report_goes_to_its_default_file(argv, fmt, name, tmp_path, kron_file, monkeypatch, capsys):
    """With BIG_OUTPUT_LINES below 0, every command in every format writes
    its report to its default file, the bytes an ``--out`` run writes."""
    pins = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps(json.loads(pins.read_text())["seeds"]["fan-a3"]))
    argv = [{"QUIVER": kron_file, "SEED": str(seed)}.get(a, a) for a in argv] + ["--format", fmt]
    monkeypatch.setattr(cli, "BIG_OUTPUT_LINES", -1)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"output too large for stdout; wrote {name}\n"
    out = tmp_path / "given"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert (tmp_path / name).read_bytes() == out.read_bytes()


SRC = str(Path(cli.__file__).resolve().parents[1])
MODULE = [sys.executable, "-m", "clusterknit.cli"]


def run_module(argv, cwd=None) -> subprocess.CompletedProcess:
    """``python -m clusterknit.cli`` on ``argv`` in a fresh process, its
    output as bytes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(MODULE + argv, capture_output=True, env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("argv", [
    ["build", "QUIVER", "--t", "2,1,1", "--format", "json"],
    ["path", "QUIVER", "--t", "2,1,1"],
    ["euler", "QUIVER", "--t", "2,1,1", "--k", "3", "--format", "json"],
    ["minors", "--n", "3"],
], ids=lambda argv: argv[0])
def test_the_module_writes_what_main_writes(argv, kron_file, tmp_path, monkeypatch, capsys):
    """A process run through the entry point writes the report that
    ``cli.main`` writes in-process, byte for byte, on stdout and through
    ``--out``, with the same exit code."""
    argv = [kron_file if a == "QUIVER" else a for a in argv]
    (tmp_path / "process").mkdir()
    monkeypatch.chdir(tmp_path)
    for extra in ([], ["--out", "given.txt"]):
        proc = run_module(argv + extra, cwd=tmp_path / "process")
        assert proc.returncode == cli.main(argv + extra) == 0, proc.stderr
        printed = capsys.readouterr().out
        assert proc.stdout == printed.encode()
        if extra:
            assert printed == "wrote given.txt\n"
            assert (tmp_path / "process" / "given.txt").read_bytes() == (tmp_path / "given.txt").read_bytes()
        else:
            assert printed.count("\n") > 1


def test_the_module_exits_as_argparse_and_main_say(tmp_path):
    """``--help`` exits 0, a usage error 2 with argparse's message, and a
    missing or unreadable input file 2 with its error."""
    proc = run_module(["--help"])
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: clusterknit") and not proc.stderr
    proc = run_module(["build"])
    assert proc.returncode == 2
    assert proc.stderr.endswith(b"error: the following arguments are required: quiver, --t\n")
    proc = run_module(["mutate", "missing.json", "1"], cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: FileNotFoundError: [Errno 2] No such file or directory: 'missing.json'\n"
    (tmp_path / "bad.json").write_text("{")
    proc = run_module(["mutate", "bad.json", "1"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == (b"error: JSONDecodeError: Expecting property name enclosed in double quotes:"
                           b" line 1 column 2 (char 1)\n")


def test_a_closed_stdout_exits_2(tmp_path):
    """A report written to a pipe whose reader has gone is an OSError like
    any other: exit 2, with nothing more said at shutdown."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(MODULE + ["minors", "--n", "3"], stdout=w, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert proc.stderr == b"error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_output_bytes_do_not_depend_on_the_locale(kron_file, tmp_path):
    """``euler`` text writes U+00B7: under the C locale, with neither UTF-8
    mode nor locale coercion, it still exits 0 and writes the UTF-8 bytes of
    a default run, to stdout and to ``--out``."""
    argv = MODULE + ["euler", kron_file, "--t", "2,1,1", "--k", "3"]
    runs = {}
    for name, extra in (("default", {}), ("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})):
        env = dict(os.environ, PYTHONPATH=SRC, **extra)
        if extra:
            env.pop("PYTHONIOENCODING", None)
        out = tmp_path / f"{name}.txt"
        printed = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        written = subprocess.run(argv + ["--out", str(out)], capture_output=True, env=env, timeout=60)
        assert printed.returncode == written.returncode == 0, printed.stderr + written.stderr
        runs[name] = printed.stdout, out.read_bytes()
    assert runs["c"] == runs["default"] == (b"2\xc2\xb7w[3,2,1,1]\n",) * 2


def test_check_fails_on_a_wrong_expected_value(monkeypatch, capsys):
    """Corrupting one expected value fails exactly the check that reads it."""
    (top, *rows) = reference.D_DELTA
    monkeypatch.setattr(reference, "D_DELTA", ((top[0] + 1, *top[1:]), *rows))
    assert cli.main(["check", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "FAIL"
    failed = [c["name"] for c in data["checks"] if c["status"] == "FAIL"]
    assert failed == ["delta_vectors"]


def test_check_under_optimize():
    """``python -O`` strips asserts; the checks must still run and pass."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "clusterknit.cli", "check", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [c["name"] for c in json.loads(proc.stdout)["checks"]]
    assert names == [name for (name, _) in reference.CHECKS]


@pytest.mark.parametrize(
    "raw, detail",
    [(b"\xff\xfe{}", "is not UTF-8 text"), (b"[" * 100_000 + b"]" * 100_000, "nests JSON too deeply")],
    ids=["not-utf8", "too-deep"],
)
def test_unreadable_json_files_exit_2(tmp_path, kron_file, capsys, raw, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    for argv in (
        ["mutate", str(path), "1"],
        ["build", str(path), "--t", "0,0"],
        ["build", kron_file, "--t", "2,1,1", "--ordering", f"file:{path}"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InputFormatError: ") and detail in err


BIG = "1" * 5000  # past the 4,300 digits Python converts between int and text


@pytest.mark.parametrize("kind", ["quiver", "ordering", "seed"])
def test_an_integer_past_the_digit_limit_exits_2(kind, tmp_path, kron_file, capsys):
    """A JSON integer literal too long for ``int`` is bad input, not a bug."""
    path = tmp_path / "big.json"
    text, argv = {
        "quiver": (f'{{"n": {BIG}, "arrows": []}}', ["build", str(path), "--t", "0"]),
        "ordering": (f"[[1, {BIG}]]", ["build", kron_file, "--t", "2,1,1", "--ordering", f"file:{path}"]),
        "seed": (f'{{"r": 1, "matrix": {{"b": [[0]]}}, "vars": [{{"1": {BIG}}}]}}', ["mutate", str(path), "1"]),
    }[kind]
    path.write_text(text)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InputFormatError: ") and "5000 digits" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_result_past_the_digit_limit_is_written_exactly(fmt, tmp_path, capsys):
    """A valid seed whose result passes Python's int-text digit limit: c,
    of 3,000 digits, squares to 6,000 in mu_2 of y1 = c*y1.  ``Decimal``
    spells c^2 here, where ``str`` would hit the limit."""
    from decimal import Decimal

    c = "7" * 3000
    path = tmp_path / "s.json"
    path.write_text(f'{{"r": 2, "matrix": {{"b": [[0, 2], [-2, 0]]}}, "vars": [{{"1,0": {c}}}, {{"0,1": 1}}]}}')
    assert cli.main(["mutate", str(path), "2", "--format", fmt]) == 0
    out = capsys.readouterr().out
    square = str(Decimal(int(c) * int(c)))
    if fmt == "json":
        assert json.loads(out)["final"]["vars"][1] == {"0,-1": "1", "2,-1": square}
    else:
        assert out == f"mu_2  y2' * y2 = y1^2 + 1  var = {square}*y1^2*y2^-1 + y2^-1\n"


def test_an_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    """A ValueError from inside the library is a bug, not bad input: it
    exits 3 and says so, with its traceback."""
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cluster, "mutate_seed", broken)
    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps({"r": 2, "matrix": {"b": [[0, 1], [-1, 0]]}}))
    assert cli.main(["mutate", str(spath), "1"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.endswith("internal error: ValueError: broken invariant\n")


def test_bad_quiver_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "arrows": [[1, 2], [2, 1]]}))
    assert cli.main(["build", str(path), "--t", "0,0"]) == 2


def test_arrow_out_of_range_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "arrows": [[1, 5]]}))
    assert cli.main(["build", str(path), "--t", "1,1"]) == 2
    assert capsys.readouterr().err == "error: VertexIndexError: arrow (1,5) out of range 1..2\n"


WORKED_PAIRS = [[v.i, v.a] for v in reference.WORKED_ORDERING]


@pytest.mark.parametrize(
    "quiver_data, pairs",
    [
        # an ordering pair 0.9 or true used to run as 0 or 1
        (None, [WORKED_PAIRS[0][:1] + [0.9]] + WORKED_PAIRS[1:]),
        (None, [[True, 0]] + WORKED_PAIRS[1:]),
        # n = 3.7 used to build a 3-vertex quiver, an arrow end 1.0 to crash
        ({"n": 3.7, "arrows": [[1, 2], [1, 2], [2, 3]]}, WORKED_PAIRS),
        ({"n": 3, "arrows": [[1.0, 2], [1, 2], [2, 3]]}, WORKED_PAIRS),
    ],
    ids=["ordering-float", "ordering-bool", "quiver-n-float", "quiver-arrow-float"],
)
def test_non_integer_quiver_and_ordering_files_exit_2(tmp_path, kron_file, capsys, quiver_data, pairs):
    qpath = kron_file
    if quiver_data is not None:
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps(quiver_data))
    opath = tmp_path / "o.json"
    opath.write_text(json.dumps(pairs))
    argv = ["euler", str(qpath), "--t", "2,1,1", "--k", "1", "--ordering", f"file:{opath}"]
    assert cli.main(argv) == 2
    assert "InputFormatError" in capsys.readouterr().err
    opath.write_text(json.dumps(WORKED_PAIRS))
    assert cli.main(argv) == (0 if quiver_data is None else 2)


def test_quiver_json_round_trip():
    q = reference.quiver("kronecker3")
    assert quiver.from_json(json.loads(json.dumps(quiver_to_json(q)))) == q


def minors_output(argv, capsys) -> str:
    cli.main(["minors", "--n", "4", *argv])
    return capsys.readouterr().out


@pytest.mark.parametrize("mode", ["table", "eta", "cross"])
def test_minors_modes_are_the_filtered_full_report(mode, capsys):
    """Each ``--mode`` gives the entries of its kind from ``--mode all``, in
    both formats, with the overall status recomputed over them."""
    full = json.loads(minors_output(["--format", "json"], capsys))
    checks = [c for c in full["checks"] if c["kind"] == mode]
    status = "FAIL" if any(c.get("status") == "FAIL" for c in checks) else "PASS"
    got = json.loads(minors_output(["--mode", mode, "--format", "json"], capsys))
    assert got == {"n": 4, "mode": mode, "checks": checks, "status": status}
    lines = [line for line in minors_output([], capsys).splitlines() if line.startswith(mode + " ")]
    assert len(lines) == len(checks) > 0
    assert lines == [reference.minors_line(c) for c in checks]
    assert minors_output(["--mode", mode], capsys).splitlines() == lines + [f"overall: {status}"]


def test_minors_builds_each_minor_once(monkeypatch, capsys):
    """One ``minors --n 5`` run builds one table of the unitriangular
    matrix's row-initial minors and one linear A_5 category."""
    from clusterknit import mesh, minors

    calls = {"unitriangular_minors": 0, "build_category": 0}
    for module, name in ((minors, "unitriangular_minors"), (mesh, "build_category")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    reference.linear_type_a.cache_clear()
    reference.interval_minors.cache_clear()
    assert cli.main(["minors", "--n", "5"]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")
    assert calls == {"unitriangular_minors": 1, "build_category": 1}
    reference.linear_type_a.cache_clear()
    reference.interval_minors.cache_clear()


def test_cross_checks_compare_exponent_maps(monkeypatch):
    """``cross_checks`` compares the map ``evaluate_phi`` returns with the
    flag minor's terms as they are: with its inputs computed beforehand, it
    constructs no Fraction and no LaurentPoly."""
    from fractions import Fraction

    from clusterknit import euler, laurent, minors

    cat = reference.linear_type_a(3)
    inputs = ((euler, "g_module"), (euler, "evaluate_phi"), (minors, "flag_minors"))
    recorded = {name: [] for _, name in inputs}
    for module, name in inputs:

        def record(*args, real=getattr(module, name), results=recorded[name]):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(module, name, record)
    want = reference.cross_checks(cat)
    assert [k for k, passed in want if passed] == list(range(1, cat.r + 1))
    for module, name in inputs:  # replay them in call order
        monkeypatch.setattr(module, name, lambda *a, it=iter(recorded[name]): next(it))

    def refused(*args, **kwargs):
        raise AssertionError("constructed")

    monkeypatch.setattr(Fraction, "__new__", refused)
    monkeypatch.setattr(laurent.LaurentPoly, "__init__", refused)
    monkeypatch.setattr(laurent, "_new", refused)
    assert reference.cross_checks(cat) == want


def test_minors_failure_injection(monkeypatch, capsys):
    """A corrupted eta comparison must surface as FAIL with exit code 1."""
    real = reference.eta_checks

    def corrupted(n):
        results = real(n)
        return [(iab, False if iab == (2, 0, 1) else ok) for (iab, ok) in results]

    monkeypatch.setattr(reference, "eta_checks", corrupted)
    assert cli.main(["minors", "--n", "4", "--mode", "eta"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "overall: FAIL" in out


def test_mutate_relation_line(tmp_path, kronecker3, capsys):
    from clusterknit import cluster
    from clusterknit.mesh import MeshVertex

    spath = tmp_path / "seed.json"
    spath.write_text(json.dumps(cluster.to_json(cluster.initial_seed(kronecker3))))
    k = kronecker3.pos(MeshVertex(1, 1)) + 1
    assert cli.main(["mutate", str(spath), str(k)]) == 0
    out = capsys.readouterr().out
    assert "T_{1,[1,2]}' * T_{1,[1,2]} =" in out
