"""The census scripts and the kernel timing script run.

tests/source_lines.py, tests/node_census.py and tests/kernel_timing.py
import private names of the package (`_rule`, `_p_rule`, `_zero_T_rule`,
`_matsubara_rule`, `_p_integral`, `_P_ORDER`, and `_Y_EDGES`, which holds
`_Y_FAR`, `_Y_TOP` and `_Y_TAIL`), so a refactor that renames one breaks
them; these tests make that a failure of the suite.  tests/fault_census.py
runs the benchmark's commands in children of its own, and its test runs
one.
"""

from pathlib import Path

import numpy as np

from aucasimir import lifshitz
from aucasimir.cli import main

import fault_census
import kernel_timing
import node_census
import source_lines


def test_source_lines_total_is_the_sum_of_its_rows(capsys):
    source_lines.main()
    *modules, (name, total) = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in modules] and all(row[0].endswith(".py") for row in modules)
    assert name == "total" and int(total) == sum(int(n) for _, n in modules)


def test_node_census_counts_the_bundled_dispersion_rule(capsys):
    node_census.main()
    bundled = [line.split() for line in capsys.readouterr().out.splitlines()
               if "bundled sample_config.ini" in line]
    assert len(bundled) == 1 and bundled[0][-1] == "676"


def test_node_census_counts_the_elements_the_kernel_processes(capsys, monkeypatch):
    # the census's four bands, at 64, 32, 16 and 8 nodes each temperature,
    # hold the rows and elements `_p_integral` processes on its scan
    node_census.kernel_census()
    census = [line.split() for line in capsys.readouterr().out.splitlines()]
    census = [row for row in census if row[1:2] and row[1] in node_census.BANDS]
    assert [int(row[2]) for row in census] == [64, 32, 16, 8] * 2
    rows, elements = np.zeros(len(node_census.BANDS), int), []
    p_integral = lifshitz._p_integral

    def counting(eps_values, y, order):
        band = np.bincount(np.digitize(y, lifshitz._Y_EDGES), minlength=rows.size)
        rows[:] += band
        elements.extend(n * lifshitz._p_rule(order, b)[0].size for b, n in enumerate(band))
        return p_integral(eps_values, y, order)

    monkeypatch.setattr(lifshitz, "_p_integral", counting)
    assert main(["force", "--config", str(node_census.DRUDE_CONFIG), "--mode", "both",
                 "--a-range", *map(str, node_census.KERNEL_SCAN_NM)]) == 0
    assert rows.tolist() == [sum(int(row[3]) for row in census if row[1] == name)
                             for name in node_census.BANDS]
    assert sum(elements) == sum(int(row[4]) for row in census)


def test_kernel_timing_replays_each_workloads_kernel_rows_in_two_trees(capsys):
    # one replay per tree, the checkout given twice as two trees
    root = Path(__file__).resolve().parents[1]
    kernel_timing.main(["--repeats", "1", str(root), str(root)])
    table = {row[0]: row[1:] for row in
             (line.split() for line in capsys.readouterr().out.splitlines())}
    assert table["epsilon_table"][:2] == ["0", "0"]
    for workload in ("tabulated_scan", "drude_scan", "residual_chain"):
        rows, calls, *medians = table[workload]
        assert int(rows) > 0 and int(calls) > 0, workload
        assert len(medians) == 2 and all(float(m) > 0 for m in medians), workload


def test_fault_census_counts_one_fresh_run_of_a_workload(capsys):
    fault_census.main(["--workload", "epsilon_table", "--runs", "1"])
    header, row, tree = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["workload", "tree"]
    workload, index, faults, wall_ms, maxrss_mb = row.split()
    assert (workload, index) == ("epsilon_table", "0")
    assert int(faults) > 0 and float(wall_ms) > 0 and float(maxrss_mb) > 0
    assert tree == f"tree 0: {fault_census.ROOT}"
