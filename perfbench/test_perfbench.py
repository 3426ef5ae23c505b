"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q     # from the root of a checkout
"""

import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from clusterknit import cluster, euler, mesh, rigidpath  # noqa: E402
from clusterknit.quiver import validate_quiver  # noqa: E402


def span(name, parent, start, end, error=0, counts=None):
    return [name, parent, start, end, error, counts]


def test_self_time_of_nested_spans():
    # laurent.f [0,10] holds cluster.g [1,4] (which holds laurent.h [2,3])
    # and laurent.h [5,6]; cluster.g [11,12] is a second root; the job runs
    # from 0 to 14.
    record = {
        "start": 0.0, "end": 14.0, "names": ["laurent.f", "cluster.g", "laurent.h"],
        "spans": [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 1, 2.0, 3.0),
                  span(2, 0, 5.0, 6.0, error=1), span(1, -1, 11.0, 12.0)],
    }
    prof = tracing.profile(record)
    funcs = prof["funcs"]
    assert funcs["laurent.f"]["self_s"] == 6.0
    assert funcs["cluster.g"]["self_s"] == 3.0 and funcs["cluster.g"]["calls"] == 2
    assert funcs["laurent.h"]["self_s"] == 2.0 and funcs["laurent.h"]["errors"] == 1
    assert prof["covered_s"] == 11.0
    layers = tracing.layer_totals(prof)
    assert layers["laurent"]["self_s"] == 8.0 and layers["laurent"]["errors"] == 1
    assert layers["cluster"]["self_s"] == 3.0
    assert layers["cli"]["self_s"] == 3.0
    assert sum(row["self_s"] for row in layers.values()) == prof["job_s"]


def test_merge_sums_counts_and_keeps_maxima():
    one = {"start": 0.0, "end": 1.0, "names": ["laurent.mul"],
           "spans": [span(0, -1, 0.0, 0.5, counts=[6, 4])]}
    two = {"start": 0.0, "end": 2.0, "names": ["laurent.mul"],
           "spans": [span(0, -1, 0.0, 1.0, counts=[2, 9])]}
    total = tracing.merge([tracing.profile(one), tracing.profile(two)])
    row = total["funcs"]["laurent.mul"]
    assert row["calls"] == 2 and row["sum"] == [8, 13] and row["max"] == [6, 9]
    assert total["job_s"] == 3.0


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    empty = {"job_s": 0.0, "covered_s": 0.0, "funcs": {}}
    metrics = run.layer_metrics(empty, 0.0)
    metrics["trace.prediction_misses"] = (0, "count")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_rescaling_to_reference_speed():
    ref = run.YARDSTICK_REF_S
    # at reference speed a time stays as it is
    assert math.isclose(run.at_reference_speed(1.5, ref, ref), 1.5)
    # a machine at half speed doubles both the job and the yardstick
    assert math.isclose(run.at_reference_speed(3.0, 2 * ref, 2 * ref), 1.5)
    # the speed is judged by the mean of the yardstick runs on either side
    assert math.isclose(run.at_reference_speed(2.0, ref, 3 * ref), 1.0)


def test_yardstick_work_is_fixed():
    assert yardstick.poly() == yardstick.POLY_TERMS
    assert yardstick.series() == yardstick.SERIES_TERMS


def test_relabeling_round_trip():
    rng = random.Random(7)
    pins = workloads.load_pins()
    for inst in (i for insts in workloads.WORKLOADS.values() for i in insts if i.t):
        n, arrows = workloads.QUIVERS[inst.quiver]
        ordering = pins["orderings"][workloads.ordering_key(inst.quiver, inst.t)]
        sigma = workloads.permutation(rng, n)
        inverse = workloads.inverse_of(sigma)
        quiver, t, mapped = workloads.relabel_quiver(n, arrows, inst.t, ordering, sigma)
        back, back_t, back_ordering = workloads.relabel_quiver(n, quiver["arrows"], t, mapped, inverse)
        assert back["arrows"] == sorted(list(a) for a in arrows)
        assert back_t == list(inst.t) and back_ordering == ordering
    for seed in pins["seeds"].values():
        pi = workloads.permutation(rng, seed["r"])
        moved = workloads.permute_seed(seed, pi)
        assert moved != seed
        assert workloads.permute_seed(moved, workloads.inverse_of(pi)) == seed


def relabeled_category(sigma):
    quiver, t, ordering = workloads.relabel_quiver(
        3, [(1, 2), (1, 2), (2, 3)], (2, 1, 1), [[1, 0], [2, 0], [1, 1], [3, 0], [2, 1], [1, 2], [3, 1]],
        sigma)
    q = validate_quiver(3, [tuple(a) for a in quiver["arrows"]])
    cat = mesh.build_category(mesh.validate_terminal(q, t))
    return cat, [mesh.MeshVertex(i, a) for i, a in ordering]


def test_outputs_agree_after_unmapping():
    identity = {1: 1, 2: 2, 3: 3}
    sigma = {1: 3, 2: 1, 3: 2}
    inverse = workloads.inverse_of(sigma)
    outputs = []
    for perm, inv in ((identity, identity), (sigma, inverse)):
        cat, ordering = relabeled_category(perm)
        res = rigidpath.run_path(cluster.initial_seed(cat, ordering),
                                 rigidpath.make_schedule(cat.terminal))
        report = json.loads(json.dumps(rigidpath.result_to_json(res)))
        series = euler.to_json(euler.g_module(cat, ordering, 5))
        outputs.append((workloads.canonical_path(report, inv),
                        workloads.canonical_series(series, inv)))
    assert outputs[0] == outputs[1]


def walk_job(length=40, seed=3):
    rng = random.Random(seed)
    start = workloads.permute_seed(workloads.load_pins()["seeds"]["d4"],
                                   workloads.permutation(rng, 8))
    mutable = [p for p in range(1, 9) if p not in start["matrix"]["frozen"]]
    walk = [rng.choice(mutable) for _ in range(length)]
    walk += walk[::-1]
    job = workloads.Job("walk-d4", "walk", [], Path("unused"), seed=start, walk=walk)
    lines, cur = [], cluster.from_json(start)
    for k in walk:
        new = cluster.mutate_seed(cur, k)
        lines.append(cluster.trace_line(cur, k, new))
        cur = new
    return job, "\n".join(lines) + "\n"


def test_walk_reversal_check():
    job, text = walk_job()
    assert workloads.check_walk(job, text)
    lines = text.splitlines()
    # a reversed step that fails to restore the variable it should
    bad = list(lines)
    bad[-5] = bad[-5].replace("var = ", "var = 2*", 1)
    assert not workloads.check_walk(job, "\n".join(bad))
    # a relation that does not match the reference matrix
    bad = list(lines)
    bad[3] = bad[3].replace(" + ", " + y1*", 1)
    assert not workloads.check_walk(job, "\n".join(bad))
    # a missing step
    assert not workloads.check_walk(job, "\n".join(lines[:-1]))


def test_corrupted_copy_is_a_failure(tmp_path):
    job, text = walk_job()
    assert not workloads.check_output(job, workloads.corrupt(job, text), {})

    cat, ordering = relabeled_category({1: 1, 2: 2, 3: 3})
    res = rigidpath.run_path(cluster.initial_seed(cat, ordering), rigidpath.make_schedule(cat.terminal))
    identity = {1: 1, 2: 2, 3: 3}
    cases = [
        (workloads.Job("p", "path", [], tmp_path, inverse=identity),
         json.dumps(rigidpath.result_to_json(res))),
        (workloads.Job("e", "euler", [], tmp_path, inverse=identity),
         json.dumps(euler.to_json(euler.g_module(cat, ordering, 5)))),
    ]
    for job, text in cases:
        pins = {"digests": {job.name: workloads.output_digest(job, text)}}
        assert workloads.check_output(job, text, pins)
        assert not workloads.check_output(job, workloads.corrupt(job, text), pins)
