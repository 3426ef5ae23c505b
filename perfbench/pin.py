"""Write perfbench/pins.json: the canonical ordering of every quiver
instance, the initial seed of every walk, and the digest of every path,
Euler and minors output with all labels as they are.

    python3 perfbench/pin.py      # from the root of a checkout

Pins fix the exact outputs the benchmark accepts; re-pin only when an
output is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from clusterknit import cluster, mesh
    from clusterknit.quiver import validate_quiver

    def category(n, arrows, t):
        return mesh.build_category(mesh.validate_terminal(validate_quiver(n, arrows), t))

    pins = {"orderings": {}, "seeds": {}, "digests": {}}
    for instances in workloads.WORKLOADS.values():
        for inst in instances:
            if inst.quiver in workloads.QUIVERS:
                cat = category(*workloads.QUIVERS[inst.quiver], inst.t)
                pins["orderings"][workloads.ordering_key(inst.quiver, inst.t)] = [
                    [v.i, v.a] for v in mesh.adapted_orderings(cat)
                ]
    for name, ((n, arrows), t) in workloads.WALK_SEEDS.items():
        pins["seeds"][name] = cluster.to_json(cluster.initial_seed(category(n, arrows, t)))

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workdir = root / ".perfbench-work" / "pin"
    for workload in workloads.WORKLOADS:
        for job in workloads.generate(workload, None, workdir, pins):
            if job.kind == "walk":
                continue
            subprocess.run([sys.executable, "-m", "clusterknit.cli", *job.argv],
                           cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
            pins["digests"][job.name] = workloads.output_digest(job, job.out.read_text())
            print(job.name, pins["digests"][job.name])
    workloads.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
