"""A seeded fuzz of two input boundaries: quiver JSON and ``--t``.

Each case writes one quiver value to a file and runs ``build``,
``path --no-expand`` and ``euler --k 1`` on it in-process with one ``--t``
string.  Every run must exit 0 (accepted) or 2 (refused with a typed
error), never 3 (an internal error).  Valid quivers have at most 6
vertices and levels at most 3, so an accepted case stays small; levels
past a Dynkin orbit are among them.
"""

import json
import random
import time

from clusterknit import cli

CASES = 300
COMMANDS = (["build"], ["path", "--no-expand"], ["euler", "--k", "1"])


def valid_quiver(rng) -> tuple[int, list]:
    """A random connected acyclic quiver on 2..6 vertices: a random tree
    plus extra and parallel arrows, each pointing down a random order."""
    n = rng.randint(2, 6)
    perm = rng.sample(range(1, n + 1), n)
    pairs = [(rng.randrange(j), j) for j in range(1, n)]
    pairs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2))]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2))]
    return n, [[perm[i], perm[j]] for (i, j) in pairs]


def not_an_int(rng, x):
    return rng.choice([float(x), str(x), True, False, None, [x]])


def broken_quiver(rng, n: int, arrows: list):
    """The quiver JSON ``{"n": n, "arrows": arrows}`` broken in one way."""
    kind = rng.randrange(12)
    arrows = [list(a) for a in arrows]
    if kind == 0:
        return {"n": not_an_int(rng, n), "arrows": arrows}
    if kind == 1:
        arrows[rng.randrange(len(arrows))][rng.randrange(2)] = not_an_int(rng, 1)
    elif kind == 2:
        n = rng.choice([2**70, 10**9, 320_000, -n, 0, 1])
    elif kind == 3:
        v = rng.randint(1, n)
        arrows.append([v, v])  # a loop
    elif kind == 4:
        s, t = rng.choice(arrows)
        arrows.append([t, s])  # a cycle
    elif kind == 5:
        n += 1  # an isolated vertex
    elif kind == 6:
        arrows.pop(rng.randrange(len(arrows)))  # maybe disconnected
    elif kind == 7:
        arrows[rng.randrange(len(arrows))][rng.randrange(2)] = rng.choice([0, n + 1, -1, 2**70])
    elif kind == 8:
        arrows[rng.randrange(len(arrows))] = rng.choice([[1], [1, 2, 3], [], "1,2", {"1": 2}])
    elif kind == 9:
        return rng.choice([{"n": n}, {"arrows": arrows}, {}])
    elif kind == 10:
        return rng.choice([[n, arrows], None, "quiver", n, {"n": n, "arrows": {"1": 2}}])
    else:
        return {"n": n, "arrows": arrows, "extra": [1, 2]}
    return {"n": n, "arrows": arrows}


def t_string(rng, n: int) -> str:
    """A ``--t`` value for an n-vertex quiver: constant levels (always
    successor-closed), random levels, or a malformed string."""
    levels = [rng.randint(0, 3)] * n if rng.random() < 0.5 else [rng.randint(0, 3) for _ in range(n)]
    kind = rng.randrange(10)
    if kind < 5:
        return ",".join(map(str, levels))
    entries = list(map(str, levels))
    j = rng.randrange(n)
    if kind == 5:
        entries[j] = rng.choice(["", "+1", "1_0", " 1", "1 ", "x", "1.0", "٣"])
    elif kind == 6:
        entries = entries[: rng.randrange(n)] if rng.random() < 0.5 else entries + ["0"]
    elif kind == 7:
        entries[j] = str(-rng.randint(1, 3))
    elif kind == 8:
        return rng.choice(["", ",", ",".join(entries) + ",", " "])
    else:
        entries[j] += ","  # an empty entry in the middle
    return ",".join(entries)


def test_quiver_and_t_boundaries_exit_0_or_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a large report goes to its default file here
    rng = random.Random(83)
    path = tmp_path / "quiver.json"
    seen, bad = {0: 0, 2: 0}, []
    start = time.perf_counter()
    for _ in range(CASES):
        n, arrows = valid_quiver(rng)
        data = {"n": n, "arrows": arrows} if rng.random() < 0.4 else broken_quiver(rng, n, arrows)
        path.write_text(json.dumps(data))
        t = t_string(rng, n)
        for command in COMMANDS:
            code = cli.main([command[0], str(path), f"--t={t}", *command[1:]])
            if code in seen:
                seen[code] += 1
            else:
                bad.append((data, t, command, code, capsys.readouterr().err))
            capsys.readouterr()
    assert not bad, bad[:3]
    assert time.perf_counter() - start < 3
    assert seen[0] > 50 and seen[2] > 500, seen
