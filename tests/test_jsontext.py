import json
import random

import pytest

from clusterknit import cluster, jsontext, reference, rigidpath


def reference_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


def random_value(rng, depth=0):
    kind = rng.choice(["int", "str", "const", "ints", "list", "dict"] if depth < 4 else ["int", "str", "const"])
    if kind == "int":
        return rng.choice([0, -1, 7, 2**64 + 3, -(3**90)])
    if kind == "str":
        return rng.choice(["", "a", 'q"uote\\', "tab\tnew\nline", "T_{1,[0,2]}", "é☃\U0001f600", "\x00\x1f"])
    if kind == "const":
        return rng.choice([None, True, False])
    if kind == "ints":
        values = [rng.randint(-5, 5) * rng.choice([1, 10**30]) for _ in range(rng.randint(0, 6))]
        return values if rng.random() < 0.5 else tuple(values)
    if kind == "list":
        items = [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return items if rng.random() < 0.5 else tuple(items)
    return {
        rng.choice(["b", "a", "final_seed", "Z", "é", "k 1", ""]): random_value(rng, depth + 1)
        for _ in range(rng.randint(0, 5))
    }


def test_dumps_matches_the_encoder_on_random_values():
    rng = random.Random(16)
    for _ in range(2000):
        obj = random_value(rng)
        assert jsontext.dumps(obj) == reference_text(obj)


def test_dumps_matches_the_encoder_on_path_reports(kronecker3, five_vertex):
    for cat in (kronecker3, five_vertex, reference.category("fan_a3")):
        seed = cluster.initial_seed(cat, with_vars=cat is not five_vertex)
        res = rigidpath.run_path(seed, rigidpath.make_schedule(cat.terminal))
        report = rigidpath.result_to_json(res)
        assert jsontext.dumps(report) == reference_text(report)


@pytest.mark.parametrize("obj", [1.5, {1: 2}, [0, 1.0], {"a": {2}}, b"bytes"])
def test_dumps_refuses_what_reports_do_not_hold(obj):
    with pytest.raises(TypeError):
        jsontext.dumps(obj)
