"""Count the minor page faults of each benchmark workload's commands, in a
fresh process per run.

Each workload's CLI steps (perfbench/workloads.py at seed 7) run through
`aucasimir.cli.main` in a child interpreter (`CHILD`) that imports the
package of one tree, in the benchmark's child environment
(perfbench/run.py: hash seed 0, thread pools capped at the CPU count) with
PYTHONDONTWRITEBYTECODE=1, so the child compiles the package as a
benchmark round does.  The child counts the minor faults (getrusage's
ru_minflt) and the wall time around each `cli.main` call, adds them up
over the steps and reports its peak resident set (ru_maxrss).  Every run
is a new child, the trees taking turns, the first turn alternating, and
the script prints per workload and tree the medians over the runs:

    python tests/fault_census.py                           # this checkout
    python tests/fault_census.py TREE_A TREE_B --runs 20   # two trees
    python tests/fault_census.py --workload epsilon_table --runs 1

A tree is a directory holding src/aucasimir.  `residual_chain`'s library
steps are left out; its `yukawa-limit` takes the residual floor that the
benchmark computes from the `residuals` output, computed here the same
way.  Which freed heap pages a work array lands on depends on what
compiling the package left behind, so a count can move with source bytes
the command never runs; compare trees, not single counts."""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
import run as bench  # noqa: E402
import workloads  # noqa: E402

SEED = 7


#: the child program, run as `python -c CHILD STEPS_JSON`.  Like
#: perfbench/child.py it imports the CLI first and then the same standard
#: modules, so the package compiles on the heap of a fresh interpreter as
#: in a benchmark round.  It runs the CLI steps, counts the minor faults
#: and the wall time around each `cli.main` call and prints their sums and
#: the peak resident set [MB] as JSON
CHILD = """
import sys
import time
import aucasimir.cli as cli
import contextlib, io, json, resource, signal, statistics

faults, wall, outputs, floor = 0, 0.0, {}, None
for step in json.loads(sys.argv[1]):
    if step["kind"] == "floor":
        from aucasimir.analysis import residual_lower_bound
        table = json.loads(outputs[step["source"]])
        delta_f = table["rows"][0][table["columns"].index("dF_pN")]
        floor = residual_lower_bound(delta_f, step["sigma"], step["confidence_sigmas"])
    if step["kind"] != "cli":
        continue
    argv = [repr(floor) if arg == "{floor}" else arg for arg in step["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        code = cli.main(argv)
        wall += time.perf_counter() - start
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if code != 0:
        sys.exit(f"{argv} exited {code}")
    outputs[step["id"]] = out.getvalue()
print(json.dumps({"faults": faults, "wall_s": wall,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def one_run(tree: Path, steps: list) -> dict:
    """One fresh child on the package of `tree`."""
    env = dict(bench.child_env(), PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(steps)],
                          env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path,
                        help="directories holding src/aucasimir (default: this checkout)")
    parser.add_argument("--runs", type=int, default=10, help="fresh children per tree and workload")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="a workload to count (repeatable; default: all)")
    args = parser.parse_args(argv)
    trees = args.trees or [ROOT]
    print(f"{'workload':<16}{'tree':>5}{'minor faults':>14}{'wall ms':>10}{'maxrss MB':>11}")
    for workload in args.workload or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as work_dir:
            steps = workloads.make(workload, SEED, Path(work_dir))["steps"]
            runs = [[] for _ in trees]
            for run in range(args.runs):
                order = range(len(trees))
                for i in (order if run % 2 == 0 else reversed(order)):
                    runs[i].append(one_run(trees[i], steps))
        for i, results in enumerate(runs):
            median = {key: statistics.median(r[key] for r in results) for key in results[0]}
            print(f"{workload:<16}{i:>5}{median['faults']:>14.0f}"
                  f"{median['wall_s'] * 1e3:>10.2f}{median['maxrss_mb']:>11.2f}")
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")


if __name__ == "__main__":
    main()
