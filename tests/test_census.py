"""The two census scripts run in-process.

tests/source_lines.py and tests/node_census.py import private names of
the package (`_rule`, `_p_rule`, `_zero_T_rule`, `_matsubara_rule`,
`_P_ORDER`, `_Y_FAR`, `_Y_TOP`), so a refactor that renames one breaks
them; these tests make that a failure of the suite.
"""

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
