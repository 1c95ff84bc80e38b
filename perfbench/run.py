"""clirset benchmark: time the real CLI commands on a synthesised world.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a clirset checkout. The workload's world is
synthesised from --seed with `clirset synth` (set-up, repeated and timed),
then the workload's timed commands run as child processes, one at a time,
until --seconds have passed (at least once). Every output is checked
(see checks.py). With --trace 1 the layers are also called in-process with
spans around each call (see tracing.py) and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every check passed, 1 when one failed, and 2 when the benchmark could not
run at all (no clirset source in the working directory, or set-up failed).
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, in the children and in-process alike, before
# numpy is imported anywhere.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    SYNTH_FILES,
    WORKLOADS,
    Workload,
    World,
    evaluate_command,
    synth_command,
    timed_commands,
)

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"
WORK_DIR = ".perfbench_work"

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPS = 3  # set-up repeats up to this many times ...
SETUP_BUDGET_S = 10.0  # ... while the repeats so far took less than this

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# The probe loop's time at the reference CPU speed (see launch.py). Timings
# are reported as wall time rescaled to this speed.
PROBE_REF_MS = 1.6


class SetupError(Exception):
    pass


class Runner:
    """Starts clirset commands as children of launch.py, within one deadline."""

    def __init__(self, root: Path, log_dir: Path, deadline: float):
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.log_dir = log_dir
        self.deadline = deadline
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, name: str, cmd: list[str]) -> dict:
        """Run one command; returns launch.py's record plus its stdout and stderr."""
        self.count += 1
        stem = self.log_dir / f"{self.count:03d}-{name}"
        timeout = max(self.remaining(), 1.0)
        subprocess.run(
            [sys.executable, str(HERE / "launch.py"), f"{stem}.json", f"{stem}.out",
             f"{stem}.err", str(timeout), "--", *cmd],
            env=self.env, check=True, timeout=timeout + 10.0,
        )
        result = json.loads(Path(f"{stem}.json").read_text())
        result["stdout"] = Path(f"{stem}.out").read_text(errors="replace")
        result["stderr"] = Path(f"{stem}.err").read_text(errors="replace")
        return result


def timing(result: dict) -> dict:
    """What a sample keeps of one command's run, with its speed-adjusted time."""
    kept = {k: result[k] for k in ("wall_s", "peak_rss_mb", "cpu_s", "probe_ms", "exit_code")}
    kept["adjusted_s"] = result["wall_s"] * PROBE_REF_MS / result["probe_ms"]
    return kept


def input_hashes(world: World) -> dict[str, str]:
    return {name: checks.sha256_file(getattr(world, name)) for name in SYNTH_FILES}


def set_up(w: Workload, seed: int, world: World, runner: Runner):
    """Synthesise the world several times; returns each synth's timing and input hashes."""
    setups, hashes = [], []
    while len(setups) < SETUP_REPS and sum(t["wall_s"] for t in setups) < SETUP_BUDGET_S:
        shutil.rmtree(world.root, ignore_errors=True)
        result = runner.run("synth", synth_command(w, seed, world))
        if result["exit_code"] != 0:
            raise SetupError(f"synth exited with code {result['exit_code']}:"
                             f" {result['stderr'][-500:]}")
        setups.append(timing(result))
        hashes.append(input_hashes(world))
    return setups, hashes


def load_reference(w: Workload, seed: int) -> dict | None:
    path = REFERENCES / f"{w.name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("seeds", {}).get(str(seed))


def record_reference(w: Workload, seed: int, observed: dict) -> Path:
    path = REFERENCES / f"{w.name}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"workload": w.name, "seeds": {}}
    data["seeds"][str(seed)] = observed
    seeds = sorted(data["seeds"].items(), key=lambda item: int(item[0]))
    # One line per seed keeps the file small and its diffs readable.
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
             for k, v in seeds]
    path.parent.mkdir(exist_ok=True)
    path.write_text(f'{{"workload": {json.dumps(w.name)}, "seeds": {{\n'
                    + ",\n".join(lines) + "\n}}\n")
    return path


def measure(w: Workload, world: World, work: Path, runner: Runner, seconds: float,
            reference: dict | None):
    """Run the timed commands until `seconds` have passed; check every sample."""
    samples, total = [], checks.Checked()
    observed, facts = None, {}
    start = time.monotonic()
    while not samples or (time.monotonic() - start < seconds
                          and runner.remaining() > 2 * _total(samples[-1], "wall_s")):
        run_dir = work / f"run{len(samples)}"
        results = {}
        for name, cmd in timed_commands(w, world, run_dir):
            results[name] = runner.run(name, cmd)
            if results[name]["exit_code"] != 0:
                break
        samples.append({name: timing(r) for name, r in results.items()})
        exit_codes = {name: r["exit_code"] for name, r in results.items()}
        checked = checks.check_retrieve(run_dir, world, w.beta, reference,
                                        exit_codes.get("retrieve"))
        if checked.facts and not facts:
            evaluation = runner.run("evaluate", evaluate_command(world, run_dir, w.beta))
            checked.add(checks.check_maqwv(checked.facts, evaluation["stdout"],
                                           evaluation["exit_code"]), "maqwv")
            facts = checked.facts
        if w.fits:
            checked.merge(checks.check_fit(world, exit_codes, reference))
        total.merge(checked)
        observed = observed or checked.observed
        shutil.rmtree(run_dir, ignore_errors=True)
    if facts:
        observed = {**(observed or {}), "maqwv": facts["maqwv"]}
    return samples, total, observed, facts


def _total(sample: dict, key: str) -> float:
    return sum(command[key] for command in sample.values())


def end_to_end(setups, samples, facts) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric as (value, unit, sample count).

    Times are speed-adjusted (see PROBE_REF_MS) unless named clock_*.
    """
    def median_of(values):
        values = list(values)
        return statistics.median(values), len(values)

    n = len(samples)
    metrics = {
        "setup_s": median_of(t["adjusted_s"] for t in setups),
        "wall_s": median_of(_total(s, "adjusted_s") for s in samples),
        "peak_rss_mb": median_of(max(c["peak_rss_mb"] for c in s.values()) for s in samples),
        "clock_setup_s": median_of(t["wall_s"] for t in setups),
        "clock_wall_s": median_of(_total(s, "wall_s") for s in samples),
        "cpu_s": median_of(_total(s, "cpu_s") for s in samples),
        "probe_ms": median_of(c["probe_ms"] for s in samples for c in s.values()),
    }
    for name in dict.fromkeys(name for s in samples for name in s):
        metrics[f"{name}_s"] = median_of(s[name]["adjusted_s"] for s in samples if name in s)
    if facts:
        retrieve_s, retrieve_n = metrics["retrieve_s"]
        metrics["qd_per_s"] = (facts["queries"] * facts["docs"] / retrieve_s, retrieve_n)
        metrics["maqwv"] = (facts["maqwv"], n)
    units = {"peak_rss_mb": "MB", "probe_ms": "ms", "qd_per_s": "1/s", "maqwv": "QV"}
    return {name: (value, units.get(name, "s"), count)
            for name, (value, count) in metrics.items()}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "clirset" / "cli.py").is_file():
        print(f"error: no clirset source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    w = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    world = World(work / "world")
    runner = Runner(root, work / "logs", deadline)
    reference = load_reference(w, args.seed)

    try:
        setups, hashes = set_up(w, args.seed, world, runner)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A traced run takes one end-to-end sample, for its checks, to leave time
    # for the in-process passes.
    seconds = 0.0 if args.trace else args.seconds
    samples, total, observed, facts = measure(w, world, work, runner, seconds, reference)
    total.add([] if all(h == hashes[0] for h in hashes) else
              ["repeated set-ups produced different inputs"], "setup")
    e2e = end_to_end(setups, samples, facts)

    print(f"# perfbench {w.name} seed={args.seed} trace={args.trace}: {w.why}")
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs sha256: " + " ".join(f"{k}={v[:16]}" for k, v in hashes[0].items()))
    print(f"reference: {'seed ' + str(args.seed) if reference else 'none recorded for this seed'}")
    print("end-to-end (median over samples):")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<18} {value:>14.6g} {unit:<4} n={n}")
    failed_frac = total.failed / total.attempted
    print(f"  {'failed_frac':<18} {failed_frac:>14.6g} {'':<4} "
          f"({total.failed} of {total.attempted} checks)")
    for problem in total.problems[:20]:
        print(f"  check failed: {problem}")

    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "inputs_sha256": hashes[0], "reference": reference is not None,
        "setups": setups, "samples": samples,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "failed_frac": failed_frac, "problems": total.problems,
    }
    metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}

    if args.trace:
        metrics = trace_metrics(w, world, work, result, runner.remaining)

    if args.record_reference:
        if total.failed:
            print("error: not recording a reference from a run whose checks failed",
                  file=sys.stderr)
        else:
            print(f"recorded reference in {record_reference(w, args.seed, observed)}")

    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.rmtree(world.root, ignore_errors=True)
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if total.failed == 0 else 1


def trace_metrics(w: Workload, world: World, work: Path, result: dict, time_left) -> dict:
    """Run the traced pass and report its per-layer metrics."""
    try:
        traced = tracing.traced_run(w, world, work / "inproc", time_left)
    except Exception:  # a broken traced run must not cost the end-to-end record
        traceback.print_exc()
        print("traced run failed; every per-layer metric is absent")
        return {}
    finally:
        shutil.rmtree(work / "inproc", ignore_errors=True)
    traced.tracer.write(work / "spans.json")
    print(f"per-layer (traced wall {traced.traced_wall_s:.3f} s):")
    for name, value in traced.metrics.items():
        print(f"  {name:<30} {value:>14.6g} {tracing.UNITS[name]}")
    for name, why in traced.absent.items():
        print(f"  {name:<30} {'absent':>14} ({why})")
    print("self time as a share of the traced wall:")
    for name, share in sorted(traced.self_share.items(), key=lambda item: -item[1]):
        label = "(unattributed)" if name == "pipeline" else name
        print(f"  {label:<30} {100 * share:>7.2f} %")
    result["per_layer"] = traced.metrics
    result["per_layer_absent"] = traced.absent
    result["self_share"] = traced.self_share
    return {name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in traced.metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
