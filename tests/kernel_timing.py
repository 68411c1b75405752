"""Time the force kernel, `lifshitz._p_integral`, on the rows each benchmark
workload gives it.

Each workload's force commands (perfbench/workloads.py at seed 7) run
through `aucasimir.cli.main` in this process with `_p_integral` wrapped to
record every call's arguments; `yukawa-limit` and the library steps of
`residual_chain` make no kernel call, and `epsilon_table` none at all.
Then each tree's `_p_integral` replays the recorded calls, the trees
taking turns, the first turn alternating, and the script prints per
workload the kernel rows and calls and the median time of one replay in
each tree:

    PYTHONPATH=src python tests/kernel_timing.py                  # this checkout
    PYTHONPATH=src python tests/kernel_timing.py TREE_A TREE_B    # two trees
    PYTHONPATH=src python tests/kernel_timing.py --repeats 200

A tree is a directory holding src/aucasimir, imported under a name of its
own so that both run in one process.  The calls are recorded with the
package Python imports (the checkout on PYTHONPATH).
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from aucasimir import lifshitz
from aucasimir.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEED = 7


def recorded_calls(workload: str) -> list[tuple]:
    """(eps_values, y, order) of every `_p_integral` call of the workload's
    force commands at SEED."""
    calls, kernel = [], lifshitz._p_integral

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    with tempfile.TemporaryDirectory() as work_dir:
        steps = workloads.make(workload, SEED, Path(work_dir))["steps"]
        lifshitz._p_integral = recording
        try:
            for step in steps:
                if step["kind"] == "cli" and step["argv"][0] in ("force", "residuals"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert cli_main(step["argv"]) == 0, step["argv"]
        finally:
            lifshitz._p_integral = kernel
    return calls


def kernel_of(tree: Path, name: str):
    """`lifshitz._p_integral` of the package in tree/src/aucasimir, imported
    as the package `name`."""
    package = tree / "src" / "aucasimir"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.lifshitz")._p_integral


def replay_seconds(kernel, calls) -> float:
    start = time.perf_counter()
    for args in calls:
        kernel(*args)
    return time.perf_counter() - start


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path,
                        help="directories holding src/aucasimir (default: the "
                             "imported package)")
    parser.add_argument("--repeats", type=int, default=60,
                        help="timed replays per tree and workload")
    args = parser.parse_args(argv)
    names = [str(tree) for tree in args.trees] or ["this checkout"]
    kernels = ([kernel_of(tree, f"_timed_tree{i}") for i, tree in enumerate(args.trees)]
               or [lifshitz._p_integral])
    print(f"{'workload':<16}{'rows':>8}{'calls':>7}"
          + "".join(f"  median us, tree {i}" for i in range(len(kernels))))
    for workload in workloads.WORKLOADS:
        calls = recorded_calls(workload)
        rows = sum(y.size for _, y, _ in calls)
        if not calls:
            print(f"{workload:<16}{rows:>8}{0:>7}  (no kernel call)")
            continue
        times = [[] for _ in kernels]
        for kernel in kernels:           # a warm-up replay each
            replay_seconds(kernel, calls)
        for repeat in range(args.repeats):
            order = range(len(kernels))
            for i in (order if repeat % 2 == 0 else reversed(order)):
                times[i].append(replay_seconds(kernels[i], calls))
        print(f"{workload:<16}{rows:>8}{len(calls):>7}"
              + "".join(f"{statistics.median(t) * 1e6:>20.1f}" for t in times))
    for i, name in enumerate(names):
        print(f"tree {i}: {name}")


if __name__ == "__main__":
    main()
