"""The worked examples, written once, and the checks built on them.

``CORPUS`` names the worked instances; the constants after it hold the
worked values for them.  ``CHECKS`` turns those values into the
named assertions of ``clusterknit check``, and the test suite reads the same
instances and values.  ``minors_report`` is ``clusterknit minors``: its
table and eta checks read each interval minor off one table of row-initial
minors, and its cross checks compare exponent maps.  Importing this module
builds nothing: ``category``, ``linear_type_a`` and ``interval_minors``
build on first use and keep what they built.
"""

from __future__ import annotations

import json
from functools import cache

from . import cluster, errors, euler, laurent, mesh, minors, rigidpath
from .laurent import LaurentPoly
from .mesh import IntervalLabel, MeshVertex
from .quiver import Quiver, adapted_word, cartan, inversion_roots, validate_quiver

# name -> (n, arrows, t): a quiver on 1..n and its level vector.
CORPUS = {
    # The double-arrow quiver 1 => 2 -> 3: seven summands, the running
    # example for dimension and Delta vectors.
    "kronecker3": (3, [(1, 2), (1, 2), (2, 3)], (2, 1, 1)),
    # A_3 with central source (arrows 2->1, 2->3), all six summands.
    "fan_a3": (3, [(2, 1), (2, 3)], (1, 1, 1)),
    "triangle3": (3, [(1, 2), (1, 3), (2, 3)], (2, 1, 1)),
    # The linearly ordered A_4 quiver 4->3->2->1 with all ten summands.
    "linear_a4": (4, [(4, 3), (3, 2), (2, 1)], (0, 1, 2, 3)),
    # The 19-mutation run.
    "five_vertex": (5, [(3, 1), (3, 5), (3, 5), (5, 2), (2, 4)], (3, 2, 3, 1, 2)),
    # Every indecomposable of E8 exists at t = 14: 120 summands.
    "e8": (8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)], (14,) * 8),
}
# kronecker3's worked adapted ordering; its adapted word reversed is WORKED_WORD.
V = MeshVertex
WORKED_ORDERING = [V(1, 0), V(2, 0), V(1, 1), V(3, 0), V(2, 1), V(1, 2), V(3, 1)]
WORKED_WORD = (3, 1, 2, 3, 1, 2, 1)


def quiver(name: str) -> Quiver:
    n, arrows, _ = CORPUS[name]
    return validate_quiver(n, arrows)


def terminal(name: str) -> mesh.TerminalData:
    return mesh.validate_terminal(quiver(name), CORPUS[name][2])


@cache
def category(name: str) -> mesh.CategoryModel:
    return mesh.build_category(terminal(name))


# -- expected values (on kronecker3 unless named otherwise) -------------------

CARTAN_KRONECKER3 = ((2, -2, 0), (-2, 2, -1), (0, -1, 2))

# Projected dimension vectors of the seven T_{i,[a,t_i]}, keyed by (i, a), as
# mesh.triangle_display triangles.
HOM_TRIANGLES = {
    (1, 2): ((1, 3, 9), (2, 6), (0, 2)),
    (1, 1): ((1, 4, 12), (2, 8), (0, 2)),
    (1, 0): ((1, 4, 13), (2, 8), (0, 2)),
    (2, 1): ((0, 2, 6), (1, 4), (0, 1)),
    (2, 0): ((0, 2, 8), (1, 5), (0, 1)),
    (3, 1): ((0, 2, 4), (1, 3), (1, 0)),
    (3, 0): ((0, 2, 6), (1, 4), (1, 1)),
}

# The initial seed mutated at this vertex gives the two vectors below.
MUTATION_VERTEX = MeshVertex(1, 1)
MUTATED_DIM_TRIANGLE = ((0, 4, 13), (2, 8), (0, 2))
MUTATED_DELTA_TRIANGLE = ((0, 0, 1), (2, 0), (0, 0))

D_DELTA = ((23, 6, 1), (14, 3), (11, 4))

SCHEDULE_LENGTHS = {"five_vertex": 19, "e8": 840}

# Q_M^op of five_vertex.
FIVE_VERTEX_QM_OP = ((1, 3), (2, 4), (2, 5), (3, 5), (3, 5))

EXCHANGE_RELATIONS = (
    "T_{1,[1,1]}*T_{1,[0,0]} = T_{1,[0,1]} + T_{2,[0,0]}^2",
    "T_{2,[1,1]}*T_{2,[0,0]} = T_{2,[0,1]} + T_{1,[1,1]}^2*T_{3,[0,0]}",
    "T_{3,[1,1]}*T_{3,[0,0]} = T_{3,[0,1]} + T_{2,[1,1]}",
)

# g_{T_k} for the worked ordering; g_5 has G5_WORDS words.
G_SERIES = {
    1: {(1,): 1},
    2: {(2, 1, 1): 2},
    3: {(1, 2, 1, 2, 1, 1): 4, (1, 2, 2, 1, 1, 1): 12},
    4: {(3, 2, 1, 1): 2},
    7: {
        (3, 2, 1, 1, 2, 2, 2, 1, 1, 1, 1): 288,
        (3, 2, 1, 1, 2, 2, 1, 2, 1, 1, 1): 144,
        (3, 2, 1, 2, 1, 2, 2, 1, 1, 1, 1): 96,
        (3, 2, 1, 1, 2, 2, 1, 1, 2, 1, 1): 48,
        (3, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1): 48,
        (3, 2, 1, 2, 1, 2, 1, 2, 1, 1, 1): 48,
        (3, 2, 1, 1, 2, 1, 2, 2, 1, 1, 1): 48,
        (3, 2, 1, 2, 1, 2, 1, 1, 2, 1, 1): 16,
        (3, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1): 16,
        (3, 2, 1, 1, 2, 1, 2, 1, 2, 1, 1): 16,
    },
}
G5_WORDS = 402

# Sorted inversion roots of the canonical adapted word of triangle3.
TRIANGLE3_ROOTS = [
    (1, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 1),
    (3, 2, 2), (3, 3, 2), (4, 3, 3),
]

# (i, a) -> j: the single-interval minor of linear_a4's vertex (i, a) is the
# variable x_j of the 5x5 unitriangular matrix.
MINOR_TABLE = {
    (4, 3): 1, (3, 2): 2, (2, 1): 3, (1, 0): 4, (4, 2): 5,
    (3, 1): 6, (2, 0): 7, (4, 1): 8, (3, 0): 9, (4, 0): 10,
}


def pbw_expansion(cat) -> LaurentPoly:
    """The dual-PBW expansion of T_{1,[0,2]} in the variables z_{i,a}."""
    z = lambda i, a: LaurentPoly.variable(cat.pos(MeshVertex(i, a)), cat.r)
    return (
        z(1, 2) * z(1, 1) * z(1, 0)
        - z(1, 2) * z(2, 0) ** 2
        - z(2, 1) ** 2 * z(1, 0)
        + (z(2, 1) * z(2, 0) * z(1, 1) * z(3, 0)).scale(2)
        - z(1, 1) ** 3 * z(3, 0) ** 2
    )


def minor_example():
    """(key, value): Delta_{23,35} of the 5x5 unitriangular matrix."""
    xv = lambda i: LaurentPoly.variable(i - 1, 10)
    return minors.MinorKey((2, 3), (3, 5)), xv(5) * xv(9) - xv(7)


def flag_identities():
    """The acyclic A_3 dual-PBW identities at the flag level, as (lhs, rhs)
    pairs of shuffle series."""
    T, g, sh = euler.ThinModule, euler.flag_oracle, euler.shuffle
    s1, s2, s3 = T((("a", 1),)), T((("b", 2),)), T((("c", 3),))
    m12 = T((("u", 1), ("v", 2)), (("u", "v"),))
    m21 = T((("u", 2), ("v", 1)), (("u", "v"),))
    m23 = T((("u", 2), ("v", 3)), (("u", "v"),))
    m32 = T((("u", 3), ("v", 2)), (("u", "v"),))
    m132 = T((("u", 1), ("w", 3), ("v", 2)), (("u", "v"), ("w", "v")))
    m213 = T((("v", 2), ("u", 1), ("w", 3)), (("v", "u"), ("v", "w")))
    four_term = (
        g(m213) + sh(sh(g(s1), g(s2)), g(s3)) - sh(g(s1), g(m23)) - sh(g(s3), g(m21))
    )
    return [
        (g(m12), sh(g(s1), g(s2)) - g(m21)),
        (g(m32), sh(g(s3), g(s2)) - g(m23)),
        (g(m132), four_term),
    ]


def final_labels(cat) -> list:
    """The labels (i, 0, b) that every schedule ends on, sorted."""
    return sorted(
        (i, 0, b)
        for i in range(1, cat.terminal.q.n + 1)
        for b in range(cat.terminal.level(i) + 1)
    )


@cache
def linear_type_a(n: int):
    """The linearly ordered A_n quiver n -> n-1 -> ... -> 1 with t_i = i-1."""
    q = validate_quiver(n, [(i + 1, i) for i in range(1, n)])
    td = mesh.validate_terminal(q, tuple(i - 1 for i in range(1, n + 1)))
    return mesh.build_category(td)


@cache
def interval_minors(n: int) -> dict:
    """{(i, a, b): (key, minor)}: the minor of the (n+1)x(n+1) unitriangular
    matrix that realizes T_{i,[a,b]} on ``linear_type_a(n)``, for every
    interval in range, in eta order, read off its row-initial minors."""
    table = minors.unitriangular_minors(n + 1)
    keys = [
        ((i, a, b), minors.interval_minor_key(i, a, b, n))
        for i in range(1, n + 1)
        for b in range(i)
        for a in range(b + 1)
    ]
    return {iab: (key, table[key]) for iab, key in keys}


def eta_checks(n: int):
    """Compare the PBW expansion of every interval (i, a, b) in range,
    evaluated at the minors of the single intervals, against its own
    symbolic minor."""
    cat, table = linear_type_a(n), interval_minors(n)
    # the single-interval variable at canonical position p takes its minor
    images = [table[v.i, v.a, v.a][1] for v in cat.vertices]
    return [
        (iab, rigidpath.pbw_expand(cat, IntervalLabel(*iab), images) == rhs)
        for iab, (_, rhs) in table.items()
    ]


def cross_checks(cat):
    """evaluate_phi(g_module(k)) against the flag minor of the one-parameter
    product, over the adapted word of a type-A category (such as
    ``linear_type_a(n)``) repeated twice, compared as maps from exponent
    tuples to coefficients (a fractional coefficient equals no minor's)."""
    n = cat.terminal.q.n
    ordering = mesh.adapted_orderings(cat)
    letters = adapted_word(cat, ordering)
    seq = letters * 2
    flag = minors.flag_minors(seq, n + 1)
    results = []
    for k in range(1, cat.r + 1):
        phi = euler.evaluate_phi(euler.g_module(cat, ordering, k), seq)
        key = minors.w_minor(letters[:k], letters[k - 1], n + 1)
        results.append((k, phi == (flag[key].exponent_map() if key in flag else {})))
    return results


def minors_report(n: int, mode: str) -> dict:
    """The report of ``clusterknit minors``: the checks of the given kind
    (``table``, ``eta``, ``cross`` or ``all``) on ``linear_type_a(n)`` and
    the overall status.  Table entries carry no status; n < 2 is refused."""
    if n < 2:
        raise errors.TooSmallError(f"need at least 2 vertices, got {n}")
    status = lambda passed: "PASS" if passed else "FAIL"
    checks = []
    if mode in ("table", "all"):
        names = [f"x{i}" for i in range(1, n * (n + 1) // 2 + 1)]
        checks += [
            {"kind": "table", "interval": [i, a], "rows": list(key.rows),
             "cols": list(key.cols), "minor": laurent.to_text(val, names)}
            for (i, a, b), (key, val) in interval_minors(n).items()
            if a == b
        ]
    if mode in ("eta", "all"):
        checks += [
            {"kind": "eta", "interval": list(iab), "status": status(passed), "extrapolated": n != 4}
            for iab, passed in eta_checks(n)
        ]
    if mode in ("cross", "all"):
        checks += [
            {"kind": "cross", "k": k, "status": status(passed)}
            for k, passed in cross_checks(linear_type_a(n))
        ]
    ok = all(c.get("status") != "FAIL" for c in checks)
    return {"n": n, "mode": mode, "checks": checks, "status": status(ok)}


def minors_line(check: dict) -> str:
    """The text line of one entry of the ``minors`` report."""
    if check["kind"] == "table":
        return f"table ({check['interval']}): rows={check['rows']} cols={check['cols']} minor={check['minor']}"
    if check["kind"] == "eta":
        extra = " (extrapolated)" if check["extrapolated"] else ""
        return f"eta {tuple(check['interval'])}: {check['status']}{extra}"
    return f"cross k={check['k']}: {check['status']}"


def minors_text(report: dict) -> str:
    """The text ``minors`` report: a line per entry, then the overall status."""
    return "\n".join([*map(minors_line, report["checks"]), f"overall: {report['status']}"])


# -- the checks of ``clusterknit check`` ------------------------------------------


def check_cartan() -> bool:
    return cartan(quiver("kronecker3")) == CARTAN_KRONECKER3


def check_dim_triangles() -> bool:
    cat = category("kronecker3")
    vecs = mesh.top_dimvecs(cat)
    return all(
        mesh.triangle_display(cat, vecs[cat.pos(v)]) == tri for v, tri in HOM_TRIANGLES.items()
    )


def check_dim_mutation() -> bool:
    cat = category("kronecker3")
    k = cat.pos(MUTATION_VERTEX) + 1
    s = cluster.mutate_seed(cluster.initial_seed(cat, with_vars=False), k)
    return s.dominated and mesh.triangle_display(cat, s.dim_trackers[k - 1]) == MUTATED_DIM_TRIANGLE


def check_delta_vectors() -> bool:
    cat = category("kronecker3")
    if mesh.triangle_display(cat, mesh.delta_dims(cat)) != D_DELTA:
        return False
    k = cat.pos(MUTATION_VERTEX) + 1
    s = cluster.mutate_seed(cluster.initial_seed(cat, with_vars=False), k)
    return mesh.triangle_display(cat, s.delta_trackers[k - 1]) == MUTATED_DELTA_TRIANGLE


def check_schedule_lengths() -> bool:
    return all(
        len(rigidpath.make_schedule(terminal(name)).steps) == length
        for name, length in SCHEDULE_LENGTHS.items()
    )


def check_path_final_labels() -> bool:
    cat = category("kronecker3")
    res = rigidpath.run_path(
        cluster.initial_seed(cat), rigidpath.make_schedule(cat.terminal)
    )
    return sorted(res.seed.labels) == final_labels(cat)


def check_pbw_expansion() -> bool:
    cat = category("kronecker3")
    return rigidpath.pbw_expand(cat, IntervalLabel(1, 0, 2)) == pbw_expansion(cat)


def check_euler_series() -> bool:
    """g_module, and the JSON text ``euler --format json`` writes, against
    the worked series."""
    cat, ordering = category("kronecker3"), WORKED_ORDERING
    return all(
        euler.g_module(cat, ordering, k) == euler.ShuffleSeries(terms)
        and euler.json_text(cat, ordering, k)
        == json.dumps(euler.to_json(euler.ShuffleSeries(terms)), indent=0, sort_keys=True)
        for k, terms in G_SERIES.items()
    ) and len(euler.g_module(cat, ordering, 5).terms) == G5_WORDS


def check_inversion_roots() -> bool:
    cat = category("triangle3")
    letters = adapted_word(cat, mesh.adapted_orderings(cat))
    got = sorted(inversion_roots(letters, cartan(cat.terminal.q)))
    want = sorted(cat.dims[v] for v in cat.vertices)
    return got == want == TRIANGLE3_ROOTS


def check_minor_dictionary() -> bool:
    key, value = minor_example()
    # Column 1 of a unitriangular matrix is e_1, so adding row 1 and column 1
    # leaves a minor unchanged: Delta_{23,35} is the row-initial Delta_{123,135}.
    lifted = minors.MinorKey((1, *key.rows), (1, *key.cols))
    return minors.unitriangular_minors(5).get(lifted) == value and all(p for _, p in eta_checks(4))


def check_flag_identities() -> bool:
    return all(lhs == rhs for lhs, rhs in flag_identities())


def check_euler_g6_integral() -> bool:
    """g_6 (392,206 words) expands, is nonzero, and its coefficients (sums of
    integer path weights) add up to the path sum over its stage DAG."""
    cat = category("kronecker3")
    g6 = euler.g_module(cat, WORKED_ORDERING, 6)
    paths = euler.dag_coefficient_sum(*euler.stage_dag(cat, WORKED_ORDERING, 6))
    return not g6.is_zero() and sum(g6.terms.values()) == paths


CHECKS = [
    ("cartan_kronecker", check_cartan),
    ("dim_triangles", check_dim_triangles),
    ("dim_mutation", check_dim_mutation),
    ("delta_vectors", check_delta_vectors),
    ("schedule_lengths", check_schedule_lengths),
    ("path_final_labels", check_path_final_labels),
    ("pbw_expansion", check_pbw_expansion),
    ("euler_series", check_euler_series),
    ("inversion_roots", check_inversion_roots),
    ("minor_dictionary", check_minor_dictionary),
    ("flag_identities", check_flag_identities),
]
# Run after CHECKS by ``check --slow``.
SLOW_CHECKS = [("euler_g6_integral", check_euler_g6_integral)]


def run_checks(slow: bool = False) -> dict:
    """The ``check`` manifest: each of CHECKS (and SLOW_CHECKS if ``slow``)
    with its status, and the overall status.  A check that raises fails,
    with the exception as its detail."""
    manifest = {"checks": [], "status": "PASS"}
    for name, fn in CHECKS + (SLOW_CHECKS if slow else []):
        try:
            passed, detail = bool(fn()), ""
        except Exception as exc:  # a crash is a failure with a reason
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        manifest["checks"].append({"name": name, "status": "PASS" if passed else "FAIL", "detail": detail})
        if not passed:
            manifest["status"] = "FAIL"
    return manifest


def manifest_text(manifest: dict) -> str:
    """The text ``check`` manifest: a line per check, then the overall status."""
    lines = [
        f"{c['status']}  {c['name']}" + (f"  ({c['detail']})" if c["detail"] else "") for c in manifest["checks"]
    ]
    return "\n".join(lines + [f"overall: {manifest['status']}"])
