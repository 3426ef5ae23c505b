"""The four workloads: their instances, the seeded input generator and the
exact output checks.

The program only ever sees generated files.  For ``path`` and ``euler`` jobs
the seed picks a relabeling sigma of the quiver's vertices; the generator
writes the relabeled quiver, the relabeled level vector and the pinned
canonical ordering mapped through sigma.  The check maps the output back
through sigma^-1 and compares its digest with the one pinned for the
instance, so it holds for every seed.  ``mutate`` jobs run a seeded random
walk followed by the same walk reversed on a seed whose positions the seed
permutes; their check needs no pin: the walk must come back to where it
started.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")

QUIVERS = {
    "kronecker3": (3, [(1, 2), (1, 2), (2, 3)]),
    "five-vertex": (5, [(3, 1), (3, 5), (3, 5), (5, 2), (2, 4)]),
    "e8": (8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)]),
    "kronecker-3arrow": (2, [(1, 2), (1, 2), (1, 2)]),
    "kronecker-2arrow": (2, [(1, 2), (1, 2)]),
    "triangle": (3, [(1, 2), (1, 3), (2, 3)]),
}

# Finite-type seeds for the walks: the cost of a step stays bounded however
# long the walk is.  Each is the initial seed of (quiver, t), pinned as seed
# JSON in pins.json.
WALK_SEEDS = {
    "fan-a3": ((3, [(2, 1), (2, 3)]), (1, 1, 1)),
    "linear-a4": ((4, [(4, 3), (3, 2), (2, 1)]), (0, 1, 2, 3)),
    "a4-t3210": ((4, [(1, 2), (2, 3), (3, 4)]), (3, 2, 1, 0)),
    "d4": ((4, [(2, 1), (2, 3), (2, 4)]), (1, 1, 1, 1)),
}
WALK_STEPS = 1500


@dataclass(frozen=True)
class Instance:
    """One job of a workload, before relabeling."""

    name: str
    kind: str  # "path", "tracker", "euler", "walk" or "minors"
    quiver: str = ""
    t: tuple = ()
    k: int = 0


WORKLOADS = {
    # Laurent expansion of large cluster variables (item 2's mechanism).
    "laurent-path": [
        Instance("kronecker3-t332", "path", "kronecker3", (3, 3, 2)),
        Instance("five-vertex-t22212", "path", "five-vertex", (2, 2, 2, 1, 2)),
    ],
    # Tracker-only schedules: dense exchange mutation, no Laurent (item 3).
    "tracker-path": [
        Instance("e8-t14", "tracker", "e8", (14,) * 8),
        Instance("kronecker-3arrow-t25-24", "tracker", "kronecker-3arrow", (25, 24)),
    ],
    # Letter-insertion operators on large series (item 4).
    "euler-series": [
        Instance("five-vertex-k8", "euler", "five-vertex", (3, 2, 3, 1, 2), 8),
        Instance("kronecker-2arrow-k6", "euler", "kronecker-2arrow", (3, 2), 6),
        Instance("triangle-k7", "euler", "triangle", (2, 1, 1), 7),
    ],
    # Many tiny Laurent operations, the minors layer and seed JSON parsing.
    "small-exact": [Instance(f"walk-{s}", "walk", s) for s in WALK_SEEDS]
    + [Instance("minors-n5", "minors", k=5)],
}


@dataclass
class Job:
    """A generated job: the CLI arguments and what its check needs."""

    name: str
    kind: str
    argv: list
    out: Path
    inverse: dict = field(default_factory=dict)  # relabeled vertex -> original
    seed: dict | None = None  # initial seed of a walk
    walk: list = field(default_factory=list)


def load_pins() -> dict:
    with open(PINS_FILE) as fh:
        return json.load(fh)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def ordering_key(quiver: str, t) -> str:
    return f"{quiver} t={','.join(map(str, t))}"


# -- relabeling ---------------------------------------------------------------


def permutation(rng: random.Random, n: int) -> dict:
    """A relabeling 1..n -> 1..n as a dict."""
    return dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))


def inverse_of(sigma: dict) -> dict:
    return {v: k for k, v in sigma.items()}


def relabel_quiver(n: int, arrows, t, ordering, sigma: dict):
    """(quiver JSON, level vector, ordering) with vertex i renamed sigma[i]."""
    quiver = {"n": n, "arrows": sorted([sigma[s], sigma[e]] for s, e in arrows)}
    new_t = [0] * n
    for i, level in enumerate(t, start=1):
        new_t[sigma[i] - 1] = level
    return quiver, new_t, [[sigma[i], a] for i, a in ordering]


def permute_seed(seed: dict, pi: dict) -> dict:
    """The same seed with position p moved to pi[p]: matrix rows and columns,
    variables, labels and both trackers (entries and coordinates)."""
    r = seed["r"]
    order = [0] * r  # order[new position - 1] = old position - 1
    for p, q in pi.items():
        order[q - 1] = p - 1

    def vec(v):
        return [v[o] for o in order]

    out = dict(seed)
    out["matrix"] = {
        "b": [vec(seed["matrix"]["b"][o]) for o in order],
        "frozen": sorted(pi[f] for f in seed["matrix"]["frozen"]),
    }
    out["vars"] = [
        {",".join(str(e) for e in vec([int(x) for x in key.split(",")])): c
         for key, c in seed["vars"][o].items()}
        for o in order
    ]
    out["labels"] = [seed["labels"][o] for o in order]
    for key in ("dim_trackers", "delta_trackers"):
        out[key] = [vec(seed[key][o]) for o in order]
    out["d_delta"] = vec(seed["d_delta"])
    return out


# -- generator ------------------------------------------------------------------


def generate(workload: str, seed: int | None, workdir: Path, pins: dict) -> list:
    """Write the inputs of every job of ``workload`` into ``workdir`` and
    return the jobs.  ``seed=None`` keeps every label as it is (used to pin
    digests); any integer gives the same inputs every time."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for inst in WORKLOADS[workload]:
        rng = random.Random(f"{seed}:{inst.name}")
        out = workdir / f"{inst.name}.out"
        if inst.kind in ("path", "tracker", "euler"):
            n, arrows = QUIVERS[inst.quiver]
            ordering = pins["orderings"][ordering_key(inst.quiver, inst.t)]
            sigma = permutation(rng, n) if seed is not None else {i: i for i in range(1, n + 1)}
            quiver, t, mapped = relabel_quiver(n, arrows, inst.t, ordering, sigma)
            qfile = workdir / f"{inst.name}.quiver.json"
            ofile = workdir / f"{inst.name}.ordering.json"
            qfile.write_text(json.dumps(quiver))
            ofile.write_text(json.dumps(mapped))
            common = [str(qfile), "--t", ",".join(map(str, t)),
                      "--ordering", f"file:{ofile}", "--format", "json", "--out", str(out)]
            if inst.kind == "euler":
                argv = ["euler", *common, "--k", str(inst.k)]
            else:
                argv = ["path", *common]
                if inst.kind == "tracker":
                    argv.append("--no-expand")
            jobs.append(Job(inst.name, inst.kind, argv, out, inverse=inverse_of(sigma)))
        elif inst.kind == "walk":
            base = pins["seeds"][inst.quiver]
            r = base["r"]
            pi = permutation(rng, r) if seed is not None else {p: p for p in range(1, r + 1)}
            start = permute_seed(base, pi)
            sfile = workdir / f"{inst.name}.seed.json"
            sfile.write_text(json.dumps(start))
            frozen = set(start["matrix"]["frozen"])
            mutable = [p for p in range(1, r + 1) if p not in frozen]
            walk = [rng.choice(mutable) for _ in range(WALK_STEPS)]
            walk += walk[::-1]
            argv = ["mutate", str(sfile), *map(str, walk), "--out", str(out)]
            jobs.append(Job(inst.name, inst.kind, argv, out, seed=start, walk=walk))
        else:
            argv = ["minors", "--n", str(inst.k), "--out", str(out)]
            jobs.append(Job(inst.name, inst.kind, argv, out))
    return jobs


# -- checks ------------------------------------------------------------------------


def canonical_path(report: dict, inverse: dict) -> dict:
    """The parts of a ``path --format json`` report that do not depend on
    the vertex labels, with labels mapped back through ``inverse``.  The
    order of steps may follow the labels (ties in the schedule), so steps
    are compared as a sorted list; their relation text is left out."""

    def label(lbl):
        return [inverse[lbl[0]], lbl[1], lbl[2]]

    seed = dict(report["final_seed"])
    seed["labels"] = [label(lbl) for lbl in seed["labels"]]
    steps = sorted(
        [label(s["old"]), label(s["new"]), s["position"], s["dominated"]]
        for s in report["steps"]
    )
    return {"length": report["length"], "steps": steps, "final_seed": seed}


def canonical_series(series: dict, inverse: dict) -> dict:
    return {
        ",".join(str(inverse[int(x)]) for x in word.split(",")) if word else "": c
        for word, c in series.items()
    }


def output_digest(job: Job, text: str) -> str:
    if job.kind in ("path", "tracker"):
        return digest(canonical_path(json.loads(text), job.inverse))
    if job.kind == "euler":
        return digest(canonical_series(json.loads(text), job.inverse))
    return digest(text)


def label_text(lbl) -> str:
    i, a, b = lbl
    return f"T_{{{i},[{a},{b}]}}"


def mutate_rows(b: list, k: int) -> list:
    """Fomin-Zelevinsky matrix mutation at k (1-based), the reference the
    walk check holds each printed exchange relation against."""
    kk = k - 1
    return [
        [
            -b[i][j] if kk in (i, j)
            else b[i][j] + (abs(b[i][kk]) * b[kk][j] + b[i][kk] * abs(b[kk][j])) // 2
            for j in range(len(b))
        ]
        for i in range(len(b))
    ]


def relation_text(b: list, k: int, names: list) -> str:
    def side(sign):
        parts = []
        for i, row in enumerate(b):
            m = row[k - 1] * sign
            if m > 0:
                parts.append(names[i] if m == 1 else f"{names[i]}^{m}")
        return "*".join(parts) or "1"

    return f"{names[k - 1]}' * {names[k - 1]} = {side(1)} + {side(-1)}"


def check_walk(job: Job, text: str) -> bool:
    """A walk followed by its reversal must undo itself exactly.

    Every reversed step must print the variable and both tracker vectors
    that the matching forward step replaced, so the walk ends on the
    initial seed's variables and trackers.  The trace shows the exchange
    matrix only through each step's relation, so every relation must match
    a reference mutation of the initial matrix."""
    seed = job.seed
    lines = text.splitlines()
    if len(lines) != len(job.walk):
        return False
    r = seed["r"]
    names = [label_text(lbl) for lbl in seed["labels"]]
    initial = [
        (f"y{p}", str(seed["dim_trackers"][p - 1]), str(seed["delta_trackers"][p - 1]))
        for p in range(1, r + 1)
    ]
    state = list(initial)
    b = seed["matrix"]["b"]
    replaced = []
    half = len(job.walk) // 2
    for step, (k, line) in enumerate(zip(job.walk, lines)):
        parts = line.split("  ")
        if len(parts) != 5 or parts[0] != f"mu_{k}" or parts[1] != relation_text(b, k, names):
            return False
        new = (parts[2].removeprefix("var = "), parts[3].removeprefix("d = "),
               parts[4].removeprefix("dDelta = "))
        if step < half:
            replaced.append(state[k - 1])
        elif new != replaced.pop():
            return False
        state[k - 1] = new
        b = mutate_rows(b, k)
        names[k - 1] = f"y{k}"
    return state == initial


def check_output(job: Job, text: str, pins: dict) -> bool:
    """True when ``text`` is the exact expected output of ``job``.  The
    pinned minors report is one that ends in ``overall: PASS``."""
    try:
        if job.kind == "walk":
            return check_walk(job, text)
        return output_digest(job, text) == pins["digests"][job.name]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError):
        return False  # malformed output


def corrupt(job: Job, text: str) -> str:
    """A copy of a passing output with one coefficient flipped."""
    if job.kind == "walk":
        head, _, last = text.rstrip("\n").rpartition("\n")
        return f"{head}\n{last.replace('var = ', 'var = -', 1)}\n"
    if job.kind == "minors":
        return text.replace("minor=x", "minor=-x", 1)
    data = json.loads(text)
    if job.kind == "euler":
        word = next(iter(data))
        data[word] = str(-int(data[word]))
    elif job.kind == "path":
        var = data["final_seed"]["vars"][0]
        mono = next(iter(var))
        var[mono] = str(-int(var[mono]))
    else:
        data["final_seed"]["dim_trackers"][0][0] += 1
    return json.dumps(data)
