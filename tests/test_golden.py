"""The raw output bytes of the benchmark's path instances, pinned by digest.

Each case runs ``clusterknit path`` in-process on one instance of the
laurent-path and tracker-path workloads, with the identity labelling and the
ordering pinned for it in ``perfbench/pins.json``, and compares the SHA-256 of
the file that ``--out`` wrote.  A changed digest is a changed output: it needs
its reason recorded like any other change to a test expectation.
"""

import hashlib
import json
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

DIGESTS = {
    ("kronecker3 t=3,3,2", "json"): "9b83148db4102fd4a8deeaf49794734da518738459eedbd3901f98e028014399",
    ("kronecker3 t=3,3,2", "text"): "e9e17879cdd37c09292254435275e431bf2e97d9549ad434be64512c34e8e071",
    ("five-vertex t=2,2,2,1,2", "json"): "0dd1d1c4ddf1c9690408bc6aa44a51da56c3cc240ebc1abd3a0d30f98165a602",
    ("five-vertex t=2,2,2,1,2", "text"): "4c005318b9854bc226bdbe4c771abc37fc928707922cbb9458714c05036b7a5a",
    ("e8 t=14,14,14,14,14,14,14,14", "json"): "a17991e0ad1588750d6c0a278313f039ea14141d58c0e795af1246d9ef1cd105",
    ("e8 t=14,14,14,14,14,14,14,14", "text"): "4734bb8dbe52671d952b94bbd584967e0fcbff5b9e525f188ef5fa6da32bfc10",
    ("kronecker-3arrow t=25,24", "json"): "6c8eafcfcd603a6c5f031dd22e85ec8ee8902924f328c076450dc58cce19273c",
    ("kronecker-3arrow t=25,24", "text"): "83c2ecf24efd5540a6a497288b5ecb99b2bfd81f45362aa7868151408b2fb1ad",
}


@pytest.mark.parametrize("instance,fmt", sorted(DIGESTS))
def test_path_output_bytes(instance, fmt, tmp_path, capsys):
    (n, arrows), no_expand = INSTANCES[instance]
    name, t = instance.split(" t=")
    quiver = tmp_path / "quiver.json"
    quiver.write_text(json.dumps({"n": n, "arrows": arrows}))
    ordering = tmp_path / "ordering.json"
    ordering.write_text(json.dumps(json.loads(PINS.read_text())["orderings"][instance]))
    out = tmp_path / f"{name}.{fmt}"
    argv = ["path", str(quiver), "--t", t, "--ordering", f"file:{ordering}",
            "--format", fmt, "--out", str(out)] + ["--no-expand"] * no_expand
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[instance, fmt]
