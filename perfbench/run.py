"""aucasimir benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each one is there): tabulated_scan,
drude_scan, residual_chain, epsilon_table.  The runner is the single client
of a closed loop: it starts one fresh child process per round (child.py),
waits for it, checks its outputs against reference.json and the physical
invariants in workloads.py, and starts the next round while the --seconds
budget allows (always at least one).

--trace 0 reports the end-to-end metrics: set-up time (process start to an
imported CLI; extra set-up-only children add samples), wall and CPU time of
the workload's commands at the reference CPU speed (see child.py), and the
child's peak resident memory, each the median over the run.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
spans.py, the reference deviation and error rate, and trace.overhead_s
(traced minus untraced median wall time at the reference speed).

The last stdout line is the result object; the lines before it and a JSON
record under perfbench/.work/results/ give percentiles, sample counts,
provenance and the computed values.  Exit status 2, without a result, when
the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

CHILD = wl.BENCH_DIR / "child.py"
WORK_ROOT = wl.BENCH_DIR / ".work"
HARD_LIMIT_S = 170.0          # the whole run, children included
SETUP_PROBES = 3              # set-up-only children per untraced run
# reported and recorded, not bounded: they follow the host's speed (see child.py)
RAW_TIMINGS = ("setup_raw_s", "wall_s", "cpu_s", "calibration_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict:
    """Environment of every child: the package from src/, thread pools capped at nproc."""
    env = dict(os.environ)
    env.pop("CASIMIR_DATA_DIR", None)
    src = str(wl.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cap = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, cap))
        except ValueError:
            wanted = cap
        env[var] = str(max(1, min(wanted, cap)))
    return env


class Runner:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = child_env()
        self.start = time.monotonic()
        self.inputs = wl.make(args.workload, args.seed, work)
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, steps: list, trace: bool) -> dict | None:
        """Run one round (or, with no steps, a set-up probe); None if it died."""
        self.count += 1
        spec = self.work / f"spec{self.count}.json"
        out = self.work / f"result{self.count}.json"
        spec.write_text(json.dumps({"steps": steps, "trace": trace,
                                    "bench_dir": str(wl.BENCH_DIR),
                                    "spans_path": str(self.work / "spans.json")}))
        timeout = max(5.0, HARD_LIMIT_S - self.elapsed())
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), repr(spawned), str(spec), str(out)],
                                  env=self.env, cwd=self.work, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:       # run() has killed and reaped it
            print(f"round {self.count}: child killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not out.exists():
            print(f"round {self.count}: child exited {proc.returncode}: {proc.stderr[-500:]}")
            return None
        result = json.loads(out.read_text())
        result["process_s"] = time.monotonic() - spawned
        return result

    def rounds(self, traced_pattern: tuple[bool, ...]) -> list[tuple[bool, dict | None]]:
        """Rounds while the budget allows; the pattern cycles (False = untraced)."""
        done, durations = [], []
        while True:
            trace = traced_pattern[len(done) % len(traced_pattern)]
            t0 = time.monotonic()
            done.append((trace, self.child(self.inputs["steps"], trace)))
            durations.append(time.monotonic() - t0)
            if done[-1][1] is None:
                break
            next_s = statistics.median(durations)
            if len(done) >= len(traced_pattern) and \
                    self.elapsed() + next_s > self.args.seconds:
                break
            if self.elapsed() + 2 * next_s > HARD_LIMIT_S:
                break
        return done


def check_round(workload: str, steps: list, result: dict | None, expect: dict):
    """(attempted, failed, max_rel_dev, problems) of one round."""
    if result is None:
        return len(steps), len(steps), 0.0, ["child process failed"]
    failed, dev, problems, outputs = 0, 0.0, [], {}
    for step, rec in zip(steps, result["steps"]):
        outputs[step["id"]] = rec
        chk = wl.check_step(workload, step, rec, expect, outputs)
        dev = max(dev, chk.max_rel_dev)
        if chk.problems:
            failed += 1
            problems.extend(chk.problems)
    failed += len(steps) - len(result["steps"])
    return len(steps), failed, dev, problems


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{100.0 * (n - 10) / n:.4g}"] = ordered[n - 11]
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(args, env: dict) -> dict:
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=wl.ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == wl.ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client, one child process at a time",
        "commit": commit, "python": platform.python_version(), **versions,
        "nproc": nproc(), "cpu_model": cpu_model,
        "thread_env": {v: env[v] for v in THREAD_VARS},
        "sha256": {str(p.relative_to(wl.ROOT)): sha256(p) for p in
                   (wl.DATASET, wl.TABULATED_CONFIG, wl.DRUDE_CONFIG, wl.REFERENCE)},
    }


def computed_values(steps: list, result: dict | None) -> dict:
    """Forces, eps and alpha values of one round, as tables, for the record."""
    values = {}
    for step, rec in zip(steps, (result or {}).get("steps", [])):
        try:
            values[step["id"]] = rec["value"] if "value" in rec else json.loads(rec["stdout"])
        except (KeyError, ValueError):
            values[step["id"]] = None
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.ROOT / "src" / "aucasimir" / "cli.py").is_file():
        print(f"no aucasimir sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    runner = Runner(args, work)
    steps, expect = runner.inputs["steps"], runner.inputs["expect"]
    probes = []
    if not args.trace:
        probes = [runner.child([], False) for _ in range(SETUP_PROBES)]
        probes = [p for p in probes if p is not None]
    done = runner.rounds((False, True) if args.trace else (False,))

    attempted = failed = 0
    max_dev, problems = 0.0, []
    for _, result in done:
        a, f, dev, probs = check_round(args.workload, steps, result, expect)
        attempted, failed, max_dev = attempted + a, failed + f, max(max_dev, dev)
        problems.extend(probs)
    plain = [r for t, r in done if not t and r is not None]
    traced = [r for t, r in done if t and r is not None]

    units = declared_units(bool(args.trace))
    summary = {}
    if args.trace:
        if traced and plain:
            overhead = (statistics.median(r["wall_ref_s"] for r in traced)
                        - statistics.median(r["wall_ref_s"] for r in plain))
            summary["trace.overhead_s"] = {"median": overhead, "n": min(len(traced), len(plain))}
        summary["check.max_rel_dev"] = {"median": max_dev, "n": len(done)}
        summary["check.error_rate"] = {"median": failed / attempted, "n": len(done)}
        for name in units:
            if traced and name not in summary:
                summary[name] = summarize([r["layers"].get(name, 0) for r in traced])
        summary = {name: summary[name] for name in units if name in summary}
    else:
        for name in list(units) + list(RAW_TIMINGS):
            samples = [r[name] for r in (probes + plain if name.startswith("setup") else plain)]
            if samples:
                summary[name] = summarize(samples)

    record = {"provenance": provenance(args, runner.env), "summary": summary,
              "attempted": attempted, "failed": failed, "max_rel_dev": max_dev,
              "error_rate": failed / attempted, "problems": problems[:50],
              "absent": traced[0]["absent"] if traced else None,
              "probes": probes,
              "samples": [{"traced": t, **({k: v for k, v in r.items() if k != "steps"}
                                            if r else {"failed": True})} for t, r in done],
              "values": computed_values(steps, done[0][1])}
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced and (work / "spans.json").exists():
        shutil.move(str(work / "spans.json"), str(results / f"{stem}-spans.json"))

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} commit={prov['commit']} python={prov['python']} "
          f"numpy={prov['numpy']} scipy={prov['scipy']} nproc={prov['nproc']} "
          f"rounds={len(done)} elapsed={runner.elapsed():.1f}s")
    for name, stats in summary.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k not in ("median", "n"))
        print(f"# {name:34s} median={stats['median']:.6g} {extra} n={stats['n']}")
    print(f"# attempted={attempted} failed={failed} error_rate={failed / attempted:.3g} "
          f"max_rel_dev={max_dev:.3g}")
    for problem in problems[:10]:
        print(f"# problem: {problem}")
    if record["absent"]:
        print(f"# absent boundaries: {', '.join(record['absent'])}")
    print(f"# record: {(results / stem).relative_to(wl.ROOT)}.json")

    metrics = {name: {"value": summary[name]["median"], "unit": unit}
               for name, unit in units.items() if name in summary}
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(units),
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
