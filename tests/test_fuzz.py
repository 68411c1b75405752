"""A seeded fail-fast fuzz test over the command line.

Each case runs one command through `aucasimir.cli.main` in this process, on
a bundled config (tabulated or Drude) with up to two config keys and the
command's flags drawn from VALUES, and checks what the command line
promises for any input:

  * the exit code is 0, 1 or 2, and no exception escapes `main`;
  * no warning but the documented R/a one;
  * an exit 0 prints only finite numbers, and `yukawa-limit` only normal
    positive ones (an alpha_min of 0 or a subnormal has lost its digits);
  * a non-zero exit prints one line to stderr (argparse usage errors,
    exit 2, aside), from the program's own checks: not the wording of an
    arithmetic or allocation fault that Python or numpy raised on the way
    (BARE).

The draws are derandomized, so a failure reproduces from this file alone.
A grid's point count is drawn from GRID_COUNTS, not from VALUES: a large
count is a valid request for a large table, whose memory grows with it.
"""

import contextlib
import io
import math
import re
import sys
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

from aucasimir.cli import main
from aucasimir.config import package_data_dir

#: every drawn config value and flag value: the edges of the float range,
#: drawn half the time, and every decade from 1e-30 to 1e30
EDGES = (-1.0, 0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.nan, math.inf, -math.inf)
DECADES = tuple(float(f"1e{k}") for k in range(-30, 31))
VALUES = EDGES + DECADES
#: point counts of --a-range and --zeta-range: two valid, the rest not
GRID_COUNTS = (2.0, 3.0, -1.0, 0.0, 1.0, 2.5, math.nan, math.inf)
#: config key -> its section
KEYS = {"sphere_radius": "geometry", "temperature": "thermal",
        "omega_p": "dielectric", "omega_tau": "dielectric",
        "omega0": "dielectric", "omega1": "dielectric",
        "tail_exponent": "dielectric"}
#: Python's and numpy's own wording for a bare arithmetic or allocation fault
BARE = ("division by zero", "math range error", "math domain error", "cannot convert float",
        "encountered in", "Unable to allocate", "Maximum allowed size exceeded")
R_OVER_A = "sphere_radius / separation < 100: the proximity force treatment assumes R >> a"

TABULATED = (package_data_dir() / "sample_config.ini").read_text()
CONFIGS = {"tabulated": TABULATED,
           "drude": TABULATED.replace("model = tabulated", "model = drude")}

values = st.one_of(st.sampled_from(EDGES), st.sampled_from(DECADES))
grid = st.tuples(values, values, st.sampled_from(GRID_COUNTS))
one = values.map(lambda v: [repr(v)])
# --points takes an integer: an integral count is typed as one
lambda_grid = grid.map(lambda g: [repr(g[0]), "--lambda-max", repr(g[1]), "--points",
                                  f"{g[2]:.0f}" if g[2].is_integer() else repr(g[2])])


def argv_of(command, required, optional):
    """[command, *flags] with every flag of `required` and any of
    `optional`; each maps a flag to a strategy of the texts after it."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda drawn: [command, *(t for flag, rest in drawn.items() for t in (flag, *rest))])


commands = st.one_of(
    st.tuples(st.just("force"), st.sampled_from(("finite_T", "zero_T", "both")),
              st.one_of(st.tuples(st.just("--a"), values),
                        st.tuples(st.just("--a-range"), grid))).map(
        lambda c: ["force", "--mode", c[1], c[2][0],
                   *map(repr, c[2][1] if c[2][0] == "--a-range" else c[2][1:])]),
    st.one_of(st.tuples(st.just("--zeta"), values),
              st.tuples(st.just("--zeta-range"), grid)).map(
        lambda c: ["epsilon", c[0], *map(repr, c[1] if c[0] == "--zeta-range" else c[1:])]),
    argv_of("yukawa-limit", {}, {
        "--residual-bound": one, "--alpha-ceiling": one, "--separation": one,
        "--film-thickness": one, "--lambda-min": lambda_grid}),
    argv_of("fit-drude", {"--range": st.tuples(values, values).map(lambda r: map(repr, r))},
            {"--fixed-omega-p": one}),
    argv_of("residuals", {"--experiment": st.just(["experiment_sample.csv"])},
            {"--a-min": one, "--a-max": one}))


def config_text(base: str, overrides: dict) -> str:
    for key, value in overrides.items():
        base = re.sub(rf"^{key} = .*$", f"{key} = {value!r}", base, flags=re.M)
    return base


def printed_numbers(text: str) -> list[float]:
    numbers = []
    for token in re.split(r"[\s,=:\[\]{}\"]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.ini"


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
# defects this test found: the ideal force underflowed to 0 in eta, and the
# tail's range check overflowed with a RuntimeWarning
@example("drude", {"sphere_radius": 5e-324}, ["force", "--mode", "finite_T", "--a", "100.0"],
         "csv")
@example("drude", {"sphere_radius": 5e-324}, ["force", "--mode", "zero_T", "--a", "100.0"],
         "csv")
@example("tabulated", {}, ["epsilon", "--zeta", "1e+300"], "csv")
# and alpha_min below the smallest normal float printed as 0 or a subnormal
@example("drude", {}, ["yukawa-limit", "--lambda-min", "1e+290", "--lambda-max", "1e+300"],
         "csv")
@example("drude", {}, ["yukawa-limit", "--lambda-min", "1e+80", "--lambda-max", "1e+100",
                       "--points", "3"], "table")
@example("drude", {}, ["yukawa-limit", "--residual-bound", "5e-324"], "json")
@example("drude", {}, ["fit-drude", "--range", "1e+15", "1e+17", "--fixed-omega-p", "1e+16"],
         "csv")
# and lengths whose metres underflow to 0 or leave the separation range
# failed past the flag check, unnamed or named with the wrong value
@example("drude", {}, ["yukawa-limit", "--lambda-min", "5e-324"], "csv")
@example("drude", {}, ["yukawa-limit", "--lambda-min", "1e-315", "--lambda-max", "1e-314",
                       "--points", "2"], "csv")
@example("drude", {}, ["yukawa-limit", "--separation", "5e-324"], "csv")
@example("drude", {}, ["yukawa-limit", "--film-thickness", "1e-320"], "csv")
@example("tabulated", {}, ["force", "--mode", "finite_T", "--a", "5e-324"], "csv")
@example("tabulated", {}, ["force", "--mode", "finite_T", "--a-range", "5e-324", "1e-323",
                           "2"], "csv")
@example("tabulated", {}, ["force", "--mode", "finite_T", "--a", "1e-25"], "csv")
@example("tabulated", {}, ["force", "--mode", "finite_T", "--a", "1e+40"], "csv")
@example("tabulated", {}, ["fit-drude", "--range", "nan", "1e+15"], "csv")
@example("tabulated", {}, ["fit-drude", "--range", "2e+15", "1e+15"], "csv")
@given(st.sampled_from(sorted(CONFIGS)),
       st.dictionaries(st.sampled_from(sorted(KEYS)), values, max_size=2),
       commands, st.sampled_from(("csv", "json", "table")))
def test_bad_input_fails_fast(config_path, model, overrides, argv, output):
    config_path.write_text(config_text(CONFIGS[model], overrides))
    if argv[0] != "yukawa-limit":
        argv = [*argv, "--config", str(config_path)]
    argv = [*argv, "--output", output]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse: a usage error or --help
            code = exc.code
            assert code == 2, argv
            return
    assert [str(w.message) for w in caught if str(w.message) != R_OVER_A] == [], argv
    assert code in (0, 1, 2), argv
    if code == 0:
        numbers = printed_numbers(out.getvalue())
        assert numbers and all(math.isfinite(x) for x in numbers), (argv, out.getvalue())
        if argv[0] == "yukawa-limit":     # every number it prints is a normal float
            assert all(x >= sys.float_info.min for x in numbers), (argv, out.getvalue())
        assert err.getvalue() == "", argv
    else:
        assert out.getvalue() == "", argv
        line = err.getvalue()
        assert line.count("\n") == 1 and line.startswith("aucasimir: "), (argv, line)
        assert not any(bare in line for bare in BARE), (argv, line)
