"""The raw output bytes of every command, pinned by digest.

Each case runs one ``clusterknit`` command in-process and compares the
SHA-256 of the file that ``--out`` wrote.  The ``path`` cases are the
instances of the laurent-path and tracker-path workloads and the ``euler``
cases those of the euler-series workload, each with the identity labelling
and the ordering pinned for it in ``perfbench/pins.json``; the ``mutate``
cases walk the pinned walk seeds.  A changed digest is a changed output: it
needs its reason recorded like any other change to a test expectation.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from clusterknit import cli, reference

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"

# instance -> ((n, arrows), whether the path runs with --no-expand)
INSTANCES = {
    "kronecker3 t=3,3,2": (reference.CORPUS["kronecker3"][:2], False),
    "five-vertex t=2,2,2,1,2": (reference.CORPUS["five_vertex"][:2], False),
    "e8 t=14,14,14,14,14,14,14,14": (reference.CORPUS["e8"][:2], True),
    "kronecker-3arrow t=25,24": ((2, [(1, 2)] * 3), True),
}

# euler instance -> ((n, arrows), k)
SERIES = {
    "five-vertex t=3,2,3,1,2": (reference.CORPUS["five_vertex"][:2], 8),
    "kronecker-2arrow t=3,2": ((2, [(1, 2)] * 2), 6),
    "triangle t=2,1,1": (reference.CORPUS["triangle3"][:2], 7),
}

# each mutate case walks this many seeded steps on its walk seed, then back
WALK_STEPS = 12

DIGESTS = {
    ("kronecker3 t=3,3,2", "json"): "9b83148db4102fd4a8deeaf49794734da518738459eedbd3901f98e028014399",
    ("kronecker3 t=3,3,2", "text"): "e9e17879cdd37c09292254435275e431bf2e97d9549ad434be64512c34e8e071",
    ("five-vertex t=2,2,2,1,2", "json"): "0dd1d1c4ddf1c9690408bc6aa44a51da56c3cc240ebc1abd3a0d30f98165a602",
    ("five-vertex t=2,2,2,1,2", "text"): "4c005318b9854bc226bdbe4c771abc37fc928707922cbb9458714c05036b7a5a",
    ("e8 t=14,14,14,14,14,14,14,14", "json"): "a17991e0ad1588750d6c0a278313f039ea14141d58c0e795af1246d9ef1cd105",
    ("e8 t=14,14,14,14,14,14,14,14", "text"): "4734bb8dbe52671d952b94bbd584967e0fcbff5b9e525f188ef5fa6da32bfc10",
    ("kronecker-3arrow t=25,24", "json"): "6c8eafcfcd603a6c5f031dd22e85ec8ee8902924f328c076450dc58cce19273c",
    ("kronecker-3arrow t=25,24", "text"): "83c2ecf24efd5540a6a497288b5ecb99b2bfd81f45362aa7868151408b2fb1ad",
    ("mutate fan-a3", "text"): "d4d89bce35e7d7a12d7c1cb26f7e6ad9d5882ec0ee3b20dd04532b767f2554db",
    ("mutate linear-a4", "text"): "dad2141219a37463a2a43ac6a2b7ad0b9b5c2f2e69e03f6f76471bb28fce8185",
    ("mutate a4-t3210", "text"): "103fac0a63edeefc385811a065100462ba67e86f3dd2ea8a083a838bc4284ce3",
    ("mutate d4", "text"): "6e1c1e340e4f0b79278f4d381a29849ee39e817baff86a8aefe5fe9578c4610b",
    ("mutate fan-a3", "json"): "3c25b57bf534959435a7b5875a110d961b8a52b4e78425b1453ed523c767ddd8",
    ("mutate linear-a4", "json"): "ec0beee38f94b5249ca24c7cbd191efc1acc780dd533f97b3f85b6adcefbd98c",
    ("mutate a4-t3210", "json"): "604b465b71ac90a32afd3af433dc21584d77957c0965bcaccad12091cfab8ad1",
    ("mutate d4", "json"): "c52a7ecf6d9b557bd77779ef0110eeda2648909dd892b26a4a93c141b41888bf",
    ("euler five-vertex t=3,2,3,1,2", "json"): "e38150ae345f78af1bbf24ca9dbacb95d1ec6a788c6b71ffd9d680d92e20b83b",
    ("euler five-vertex t=3,2,3,1,2", "text"): "11eb3b66367e625f2dc327d6e77c986fddab085626cb69b7ce90260ddae95e59",
    ("euler kronecker-2arrow t=3,2", "json"): "12633aed92bd881af7f79bb9aeb5aa0759a1562674ac18628698326341024987",
    ("euler kronecker-2arrow t=3,2", "text"): "3c5f8247e8ad447a256ebe3137e9de5b4ba538910855bbd37212034e2ebfbba8",
    ("euler triangle t=2,1,1", "json"): "c8c9aa9cbe0c1e18dd05596e5ca3fd51140f38a8cb849713a4db2313449d8c3e",
    ("euler triangle t=2,1,1", "text"): "6546c1bb6bdcecc33f53eab52d8d5c367b926b9066e26d48ed9898002b691275",
    ("minors 4", "text"): "f7b902538e20768cc959768c82f5205d566e14d7c2a5d35db68ed65fa48f0523",
    ("minors 4", "json"): "fc4584f77cd3251fc554d0d3490be7c4b12f8d50b3b9cd0b6caeb2d4e9270801",
    ("minors 5", "text"): "4bbbfa566d147e54ff20ddaf4400c1f02c8cae0a91f8e69cbe1556091c052015",
    ("minors 5", "json"): "a3df9943f954a312b5db8c0cb32fe0704e240ffbaeab08dc2a74bdbc00930ce1",
    ("build kronecker3", "text"): "0d5bebff9235d3c565669e374a66c0b28c0e490bdb157fe37763b63121bf15b6",
    ("build kronecker3", "json"): "5abc99eff64074eedc5f169fbf49ee196b6cf81ea8414cb340f35e9f4ca4e7cd",
    ("build kronecker3", "dot"): "51de8eb12825c227bb974b8fdedf7d1bc7d2336163a323f3611f6c6281c0f676",
    ("check", "json"): "859a77491088a3b179501b20784e155307dc42f0ba9a4b67d24b2530b5d0a589",
    ("check", "text"): "510d5f4e2464fe9cb3ddd4fd785f5357bab693f020f05f805d7d214846959d92",
}


def run(argv, fmt, tmp_path, capsys) -> str:
    """The digest of what ``argv`` writes in format ``fmt`` to ``--out``."""
    out = tmp_path / f"out.{fmt}"
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    return hashlib.sha256(out.read_bytes()).hexdigest()


def terminal_args(instance, n, arrows, tmp_path) -> list:
    """The quiver file, ``--t`` and pinned ``--ordering`` of an instance."""
    t = instance.split(" t=")[1]
    quiver = tmp_path / "quiver.json"
    quiver.write_text(json.dumps({"n": n, "arrows": arrows}))
    ordering = tmp_path / "ordering.json"
    ordering.write_text(json.dumps(json.loads(PINS.read_text())["orderings"][instance]))
    return [str(quiver), "--t", t, "--ordering", f"file:{ordering}"]


@pytest.mark.parametrize("instance,fmt", sorted(k for k in DIGESTS if k[0] in INSTANCES))
def test_path_output_bytes(instance, fmt, tmp_path, capsys):
    (n, arrows), no_expand = INSTANCES[instance]
    argv = ["path", *terminal_args(instance, n, arrows, tmp_path)] + ["--no-expand"] * no_expand
    assert run(argv, fmt, tmp_path, capsys) == DIGESTS[instance, fmt]


def command_argv(case, tmp_path) -> list:
    """The command line of a non-path case, its input files under ``tmp_path``."""
    command, _, arg = case.partition(" ")
    if command == "euler":
        (n, arrows), k = SERIES[arg]
        return ["euler", *terminal_args(arg, n, arrows, tmp_path), "--k", str(k)]
    if command == "mutate":
        seed = json.loads(PINS.read_text())["seeds"][arg]
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(seed))
        mutable = sorted(set(range(1, seed["r"] + 1)) - set(seed["matrix"]["frozen"]))
        rng = random.Random(f"golden:{arg}")
        walk = [rng.choice(mutable) for _ in range(WALK_STEPS)]
        return ["mutate", str(path), *map(str, walk + walk[::-1])]
    if command == "minors":
        return ["minors", "--n", arg]
    if command == "build":
        path = tmp_path / "quiver.json"
        n, arrows, t = reference.CORPUS[arg]
        path.write_text(json.dumps({"n": n, "arrows": arrows}))
        return ["build", str(path), "--t", ",".join(map(str, t))]
    return [command]  # check


@pytest.mark.parametrize("case,fmt", sorted(k for k in DIGESTS if k[0] not in INSTANCES))
def test_command_output_bytes(case, fmt, tmp_path, capsys):
    assert run(command_argv(case, tmp_path), fmt, tmp_path, capsys) == DIGESTS[case, fmt]
