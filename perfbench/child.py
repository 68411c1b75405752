"""One benchmark round in a fresh interpreter.

    python3 child.py SPAWN_MONOTONIC SPEC.json RESULT.json

Imports `aucasimir.cli` (set-up ends there), runs the spec's steps one after
another and writes their outputs, timings and peak memory to RESULT.json.
SPAWN_MONOTONIC is the parent's `time.monotonic()` just before it started
this process; the clock is shared by all processes of the machine, so the
difference is the time from process start to an imported CLI.  A spec with
no steps only measures set-up.

The speed of a CPU of a shared host can change by more than half within
seconds (neighbours on the same cores).  To take that out of the bounded
metrics, a fixed pure-Python loop is timed five times right after the import and
every CALIBRATION_PERIOD_S while the steps run (from a SIGALRM handler, in
the same thread, so on the same CPU).  wall_ref_s and cpu_ref_s are wall and
CPU time less the calibration's own, scaled by CALIBRATION_REF_S over the
median loop time: the time the steps would take on a CPU that runs the loop
in CALIBRATION_REF_S.  setup_s is scaled the same way by the five loops
after the import; setup_raw_s is the time as measured.
"""

import sys
import time

_SPAWNED = float(sys.argv[1])
import aucasimir.cli as cli  # noqa: E402  (set-up is measured up to here)

SETUP_RAW_S = time.monotonic() - _SPAWNED

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

CALIBRATION_LOOP = 20_000
CALIBRATION_PERIOD_S = 0.1
CALIBRATION_REF_S = 1.5e-3


def calibration_loop() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - t0


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the arguments
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_floor(step, outputs):
    from aucasimir.analysis import residual_lower_bound
    table = json.loads(outputs[step["source"]]["stdout"])
    delta_f = table["rows"][0][table["columns"].index("dF_pN")]
    return {"value": residual_lower_bound(delta_f, step["sigma"], step["confidence_sigmas"])}


def run_oracle(step):
    from aucasimir.yukawa import ConstraintGeometry, YukawaHypothesis, yukawa_force_oracle
    geom = ConstraintGeometry()
    return {"value": [yukawa_force_oracle(YukawaHypothesis(step["alpha"], lam * 1e-9), geom,
                                          step["sphere_radius_m"])
                      for lam in step["lambdas_nm"]]}


def run_steps(steps):
    outputs, records = {}, []
    for step in steps:
        try:
            if step["kind"] == "cli":
                argv = step["argv"]
                for key, out in outputs.items():   # "{floor}" -> an earlier step's value
                    if "value" in out:
                        argv = [arg.replace("{%s}" % key, repr(out["value"])) for arg in argv]
                rec = run_cli(argv)
            elif step["kind"] == "floor":
                rec = run_floor(step, outputs)
            else:
                rec = run_oracle(step)
        except Exception as exc:  # a failed step is counted, the round goes on
            rec = {"error": repr(exc)}
        outputs[step["id"]] = rec
        records.append(rec)
    return records


def main():
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, spec["bench_dir"])
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    before = [calibration_loop() for _ in range(5)]
    during = []
    signal.signal(signal.SIGALRM, lambda signum, frame: during.append(calibration_loop()))
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records = run_steps(spec["steps"])
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    loop_s = statistics.median(before + during)
    scale = CALIBRATION_REF_S / loop_s
    result = {"setup_s": SETUP_RAW_S * CALIBRATION_REF_S / statistics.median(before),
              "setup_raw_s": SETUP_RAW_S, "wall_s": wall, "cpu_s": cpu,
              "wall_ref_s": (wall - sum(during)) * scale,
              "cpu_ref_s": (cpu - sum(during)) * scale,
              "calibration_s": loop_s, "calibrations": len(during),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "steps": records}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.dump(spec["spans_path"])
    with open(sys.argv[3], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
