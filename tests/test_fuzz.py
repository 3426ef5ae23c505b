"""A seeded fuzz of four input boundaries: quiver JSON, ``--t``, seed JSON
and ``file:`` ordering files.

Each quiver case writes one quiver value to a file and runs ``build``,
``path --no-expand`` and ``euler --k 1`` on it in-process with one ``--t``
string.  Each seed case writes a corpus seed's JSON broken in one way and
runs ``mutate`` on it in both formats; each ordering case writes one
ordering of a corpus quiver, shuffled, truncated, padded or mistyped, and
runs ``build``, ``path --no-expand`` and ``euler --k 2`` with it.  Every
run must exit 0 (accepted) or 2 (refused with a typed error), never 3 (an
internal error).  Valid quivers have at most 6 vertices and levels at most
3, so an accepted case stays small; levels past a Dynkin orbit are among
them.  Seeds keep |b_ij| <= 3 and small exponents and take at most 3
steps, so no accepted walk grows large.
"""

import json
import random
import time

from clusterknit import cli, cluster, reference

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


def run_cases(cases, capsys) -> dict:
    """Run each argv through ``cli.main``: the count of each exit code in
    {0, 2}, and the first few cases that exited otherwise."""
    seen, bad = {0: 0, 2: 0}, []
    for argv, data in cases:
        code = cli.main(argv)
        if code in seen:
            seen[code] += 1
        else:
            bad.append((data, argv, code, capsys.readouterr().err))
        capsys.readouterr()
    assert not bad, bad[:3]
    return seen


def not_an_int_entry(rng, x):
    """x mistyped as a float, a bool, a digit string, null or a list."""
    return rng.choice([float(x), True, False, str(x), f"{x}.0", None, [x]])


def broken_seed(rng, seed: dict):
    """A copy of the seed JSON broken in one way, or left valid."""
    data = json.loads(json.dumps(seed))
    r = data["r"]
    i, j = rng.randrange(r), rng.randrange(r)
    kind = rng.randrange(14)
    if kind == 0:
        data["r"] = rng.choice([not_an_int_entry(rng, r), r + 1, r - 1, 0, -r])
    elif kind == 1:
        data["matrix"]["b"][i][j] = not_an_int_entry(rng, data["matrix"]["b"][i][j])
    elif kind == 2:  # a new entry, maybe no longer skew-symmetrizable
        data["matrix"]["b"][i][j] = rng.randint(-3, 3)
        if rng.random() < 0.5:
            data["matrix"]["b"][j][i] = -data["matrix"]["b"][i][j]
    elif kind == 3:
        data["matrix"]["frozen"] = rng.choice([[0], [r + 1], [1.0], [True], ["1"], 1, None, {}])
    elif kind == 4:
        key = next(iter(data["vars"][i]))
        data["vars"][i][key] = rng.choice([1.5, True, None, "+1", "1.0", " 1", "", "x", "٣", [1], 0])
    elif kind == 5:  # a bad exponent key
        exps = data["vars"][i].popitem()[0].split(",")
        bad = rng.choice([exps[:-1], exps + ["0"], ["a"] * r, exps[:-1] + ["1.0"], exps[:-1] + [""]])
        data["vars"][i][rng.choice([",".join(bad), "", ",".join(["-2"] * r)])] = "1"
    elif kind == 6:
        data["labels"][i] = rng.choice([[1, 0], [1, 0, 0, 0], ["1", 0, 0], [1.0, 0, 0], None, 7])
    elif kind == 7:
        key = rng.choice(["dim_trackers", "delta_trackers"])
        row = data[key][i]
        data[key][i] = rng.choice([row[:-1], row + [0], [not_an_int_entry(rng, row[0])] + row[1:]])
    elif kind == 8:
        data["d_delta"] = rng.choice([data["d_delta"][:-1], [1.5] * r, "1", None])
    elif kind == 9:  # a missing key
        del data[rng.choice(sorted(data))]
    elif kind == 10:
        return rng.choice([[data], None, "seed", r, {"matrix": [], "r": r}, {"matrix": {}, "r": r}])
    elif kind == 11:  # a list of the wrong length
        key = rng.choice(["vars", "labels", "dim_trackers", "delta_trackers"])
        data[key] = data[key][:-1] if rng.random() < 0.5 else data[key] + data[key][:1]
    elif kind == 12:  # a matrix row of the wrong length, or a row too many
        b = data["matrix"]["b"]
        b[i] = b[i][:-1] if rng.random() < 0.5 else b[i] + [0]
        if rng.random() < 0.3:
            b.append([0] * r)
    return data


def test_seed_json_boundary_exits_0_or_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(89)
    seeds = [cluster.to_json(cluster.initial_seed(reference.category(name))) for name in ("kronecker3", "fan_a3")]
    cases = []
    for c in range(200):
        seed = rng.choice(seeds)
        assert max(abs(x) for row in seed["matrix"]["b"] for x in row) <= 3
        data = seed if rng.random() < 0.15 else broken_seed(rng, seed)
        path = tmp_path / f"seed{c}.json"
        path.write_text(json.dumps(data))
        mutable = [k for k in range(1, seed["r"] + 1) if k not in seed["matrix"]["frozen"]]
        steps = [
            str(rng.choice(mutable) if rng.random() < 0.8 else rng.randint(0, seed["r"] + 1))
            for _ in range(rng.randint(1, 3))
        ]
        cases += [(["mutate", str(path), *steps, "--format", fmt], data) for fmt in ("text", "json")]
    start = time.perf_counter()
    seen = run_cases(cases, capsys)
    assert time.perf_counter() - start < 2
    assert seen[0] > 60 and seen[2] > 200, seen


def adapted_ordering(rng, cat) -> list:
    """A random Gamma_M-adapted ordering: every arrow's target first."""
    after = {v: [] for v in range(1, cat.r + 1)}
    waiting = dict.fromkeys(after, 0)
    for (u, v) in cat.gammaM.arrows:
        after[v].append(u)
        waiting[u] += 1
    ready, order = [v for v in after if not waiting[v]], []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(cat.vertices[v - 1])
        for u in after[v]:
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    return [[x.i, x.a] for x in order]


def broken_ordering(rng, pairs: list, n: int):
    """The ordering's JSON pairs shuffled, truncated, padded or mistyped,
    or left as they are."""
    pairs = [list(p) for p in pairs]
    k = rng.randrange(len(pairs))
    kind = rng.randrange(8)
    if kind == 0:
        rng.shuffle(pairs)
    elif kind == 1:
        pairs[k], pairs[k - 1] = pairs[k - 1], pairs[k]
    elif kind == 2:
        del pairs[k:]
    elif kind == 3:
        pairs.append(rng.choice([pairs[k], [n + 1, 0], [1, 9], [0, 0], [-1, 0], [1, 2**70]]))
    elif kind == 4:
        pairs[k] = rng.choice([pairs[k - 1], [1, -1], [n, 5]])  # a repeat or a stranger
    elif kind == 5:
        pairs[k][rng.randrange(2)] = not_an_int_entry(rng, pairs[k][0])
    elif kind == 6:
        pairs[k] = rng.choice([[1], [1, 0, 0], [], "1,0", {"i": 1, "a": 0}, None])
    elif kind == 7:
        return rng.choice([{"ordering": pairs}, None, "canonical", 7, [], [pairs]])
    return pairs


def test_ordering_file_boundary_exits_0_or_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(97)
    quivers = []
    for name in ("kronecker3", "fan_a3", "triangle3"):
        n, arrows, t = reference.CORPUS[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "arrows": arrows}))
        quivers.append((path, n, ",".join(map(str, t)), reference.category(name)))
    cases = []
    for c in range(100):
        path, n, t, cat = rng.choice(quivers)
        data = adapted_ordering(rng, cat)
        if rng.random() < 0.8:
            data = broken_ordering(rng, data, n)
        ordering = tmp_path / f"ordering{c}.json"
        ordering.write_text(json.dumps(data))
        for command in (["build"], ["path", "--no-expand"], ["euler", "--k", "2"]):
            argv = [command[0], str(path), f"--t={t}", f"--ordering=file:{ordering}", *command[1:]]
            cases.append((argv, data))
    start = time.perf_counter()
    seen = run_cases(cases, capsys)
    assert time.perf_counter() - start < 2
    assert seen[0] > 40 and seen[2] > 150, seen
