"""The qkdlab benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a source checkout; it imports ``qkdlab`` from the
checkout's ``src/`` and writes only under ``perfbench/``.  The workload's
input configs are generated from ``--seed``: each run uses the program seeds
``SEEDS_PER_RUN * seed + j``.  Every repetition runs in a fresh child process
(``child.py``), one at a time: the child times ``import qkdlab.cli``
(``setup_s``) and one ``qkdlab.cli.main`` call (``run_s``), and this process
takes the child's peak RSS from ``os.wait4``.  Repetitions go on while the
next one would end within ``--seconds``, and every program seed runs at least
twice.  Each end-to-end metric is the median over the run's repetitions.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` untraced and traced repetitions
alternate; the traced ones give the per-layer metrics, must write the same
bytes as the untraced ones, and their extra ``run_s`` is the tracing
overhead.  Every repetition's outputs are checked; a repetition that fails a
check is still timed, and counts in ``failed`` and ``fail_share``.

This process imports no numpy and reads output files in chunks: a child
started with vfork inherits its parent's peak RSS as a floor, so the driver
stays far below the smallest child.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RESULTS = HERE / "results"

MB = 1e6
SEEDS_PER_RUN = 3
SETUP_PROBES = 10         # extra import-only children per run, for setup_s
CHILD_TIMEOUT_S = 150.0
# Dense PA hash bytes per matrix entry: the int64 m x n Toeplitz index plus
# the uint8 matrix gathered through it (a computed figure, not a measured one).
PA_BYTES_PER_ENTRY = 8 + 1

WERNER_P = 0.04
ANALYTIC_FIDELITY = 1.0 - 0.75 * WERNER_P      # <Phi+| Werner(p) |Phi+>
FIDELITY_TOL = 0.02
FIDELITY_SIGMAS = 5.0


# --------------------------------------------------------------- output checks

def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_keygen(out: Path) -> list[str]:
    s = _read_json(out / "summary.json")
    problems = []
    if s["aborted"]:
        problems.append("session aborted")
    if s["qber_estimate"] is None or s["qber_estimate"] > 0.11:
        problems.append(f"qber_estimate {s['qber_estimate']} above 0.11")
    if s["final_key_bits"] <= 0:
        problems.append("no final key")
    return problems


def _check_abort(out: Path) -> list[str]:
    q = _read_json(out / "summary.json")["qber_estimate"]
    if q is None or abs(q - 0.25) > 0.03:
        return [f"qber_estimate {q} outside 0.25 +- 0.03"]
    return []


def _density_problems(rho: list[list[complex]]) -> list[str]:
    """The qmath density invariants (Hermitian, unit trace, eigenvalues
    >= -1e-8), checked without numpy."""
    n = len(rho)
    if any(len(row) != n for row in rho):
        return ["rho is not square"]
    if max(abs(rho[i][j] - rho[j][i].conjugate()) for i in range(n) for j in range(n)) >= 1e-10:
        return ["rho is not Hermitian"]
    if abs(sum(rho[i][i] for i in range(n)) - 1.0) > 1e-10:
        return ["rho does not have unit trace"]
    # The real form [[A, -B], [B, A]] of A + iB has the same eigenvalues,
    # each twice; a Cholesky factorisation of it shifted by 1e-8 exists iff
    # every eigenvalue is above -1e-8.
    m = [[(rho[i % n][j % n].real if (i < n) == (j < n) else
           (-rho[i][j - n].imag if i < n else rho[i - n][j].imag))
          + (1e-8 if i == j else 0.0) for j in range(2 * n)] for i in range(2 * n)]
    low = [[0.0] * (2 * n) for _ in range(2 * n)]
    for j in range(2 * n):
        pivot = m[j][j] - sum(low[j][k] ** 2 for k in range(j))
        if pivot <= 0.0:
            return ["rho has a negative eigenvalue"]
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, 2 * n):
            low[i][j] = (m[i][j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
    return []


def _check_tomo(out: Path) -> list[str]:
    rho = [[complex(re, im) for re, im in row]
           for row in _read_json(out / "density_matrix.json")["rho"]]
    problems = _density_problems(rho)
    metrics = _read_json(out / "metrics.json")
    problems += [f"{key} is {metrics[key]}" for key in sorted(metrics)
                 if key.endswith("_sigma") and not metrics[key] > 0.0]
    f, sigma = metrics["fidelity"], metrics["fidelity_sigma"]
    tol = max(FIDELITY_TOL, FIDELITY_SIGMAS * sigma)
    if not abs(f - ANALYTIC_FIDELITY) <= tol:
        problems.append(f"fidelity {f} not within {tol:.4f} of {ANALYTIC_FIDELITY}")
    return problems


# ------------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Workload:
    kind: str                     # qkdlab subcommand
    config: dict                  # config body without seed and size
    size_key: str                 # the config key that sets the input size
    size: int
    smoke_size: int
    expected_exit: int
    check: Callable[[Path], list[str]]


WORKLOADS = {
    # Every session layer runs: Cascade works at QBER ~3 % and PA hashes
    # ~10k bits, which sets peak RSS.
    "session-keygen": Workload(
        "session",
        {"kind": "session", "source_noise": WERNER_P,
         "detector": {"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 0.9},
         "eve": {"mode": "absent"}},
        "n_intervals", 100_000, 30_000, 0, _check_keygen),
    # Intercept-resend with random bases aborts at QBER ~0.25 before Cascade
    # and PA: the control for reconcile and PA work.
    "session-intercept-abort": Workload(
        "session",
        {"kind": "session", "source_noise": 0.0,
         "detector": {"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 0.0},
         "eve": {"mode": "intercept_resend", "basis_policy": "random_per_trial",
                 "intercept_fraction": 1.0}},
        "n_intervals", 100_000, 30_000, 2, _check_abort),
    # Tomography and qmath only: the control for every session-side change.
    "tomo-bootstrap": Workload(
        "tomo",
        {"kind": "tomo", "source_noise": WERNER_P, "n_per_setting": 10000,
         "eve": {"mode": "absent"}},
        "replicas", 5000, 200, 0, _check_tomo),
}


# ---------------------------------------------------------------- repetitions

def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # subtracted from the time its parent spawned it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _wait4(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` and return ``(rusage, timed_out)``; kill it on timeout
    or on any exception, and wait for it either way."""
    deadline = _now() + timeout
    rusage = None
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return rusage, False
            if _now() > deadline:
                break
            time.sleep(0.01)
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return rusage, True


@dataclass
class Child:
    spawned_at: float
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    result: dict | None           # what child.py wrote, None if it wrote nothing


def _spawn(mode: str, result_path: Path, cli_args: list[str]) -> Child:
    with open(result_path.with_suffix(".log"), "wb") as log:
        spawned_at = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_args],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        rusage, timed_out = _wait4(proc, CHILD_TIMEOUT_S)
        wall_s = _now() - spawned_at
    try:
        result = _read_json(result_path)
    except (OSError, ValueError):
        result = None
    return Child(spawned_at, wall_s, rusage.ru_maxrss * 1024 / MB, timed_out, result)


def _setup_s(child: Child) -> float | None:
    if child.result is None:
        return None
    return child.result["imported_at"] - child.spawned_at


def _output_files(out: Path) -> tuple[dict[str, int], str]:
    """Size of every file under ``out`` and one digest over names and bytes."""
    sizes, digest = {}, hashlib.sha256()
    paths = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in paths:
        rel = path.relative_to(out).as_posix()
        sizes[rel] = path.stat().st_size
        digest.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    return sizes, digest.hexdigest()


@dataclass
class Rep:
    seed: int
    traced: bool
    setup_s: float | None
    run_s: float
    peak_rss_mb: float
    files: dict[str, int]
    digest: str
    trace: dict | None
    problems: list[str]

    @property
    def output_mb(self) -> float:
        return sum(self.files.values()) / MB


# What a traced child that wrote no result contributes: every metric reads 0.
EMPTY_TRACE = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}, "unavailable": {},
               "absent": [], "pa_peak_alloc_bytes": 0}


def _run_rep(wl: Workload, seed: int, config_path: Path, rep_dir: Path, traced: bool) -> Rep:
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    child = _spawn("trace" if traced else "run", rep_dir / "child.json",
                   [wl.kind, "--config", str(config_path), "--out", str(out)])
    problems = []
    result = child.result or {}
    if child.timed_out:
        problems.append(f"timed out after {CHILD_TIMEOUT_S} s")
    if "exit" not in result:
        problems.append(f"child wrote no result, see {rep_dir / 'child.log'}")
    elif result["exit"] != wl.expected_exit:
        problems.append(f"exit code {result['exit']}, expected {wl.expected_exit}")
    try:
        problems += wl.check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    files, digest = _output_files(out)
    shutil.rmtree(out, ignore_errors=True)
    trace = result.get("trace") or (EMPTY_TRACE if traced else None)
    return Rep(seed, traced, _setup_s(child), result.get("run_s", child.wall_s),
               child.peak_rss_mb, files, digest, trace, problems)


# --------------------------------------------------------------------- metrics

SELF_S = ("detection.simulate_dwell_stream", "detection.records_to_csv",
          "protocol.run_session", "protocol.sift", "protocol.estimate_qber",
          "protocol.reconcile", "protocol.transcript_to_dict", "protocol.privacy_amplify",
          "tomography.simulate_counts", "tomography.reconstruct",
          "tomography.bootstrap_metrics", "tomography.tangle", "tomography.von_neumann",
          "qmath.nearest_physical", "qmath.is_density", "otp.bits_to_hex")
CALLS = ("tomography.reconstruct", "qmath.nearest_physical", "qmath.is_density")
# Per-layer metrics that are measured; the others are counts, which must
# repeat exactly between traced repetitions.
MEASURED = ({f"{name}.self_s" for name in SELF_S}
            | {"cli.write.self_s", "detection.us_per_interval", "tomography.us_per_replica",
               "protocol.pa_peak_alloc_mb"})


def _layer_metrics(rep: Rep) -> dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    t = rep.trace
    self_s, total_s, calls = t["self_s"], t["total_s"], t["calls"]
    counts = {key: 0 for key in ("intervals", "kept", "sifted_bits", "disclosed_bits",
                                 "leaked_bits", "residual_errors", "pa_in_bits",
                                 "pa_out_bits", "replicas", "clamp_events")}
    counts.update(t["counts"])
    intervals, replicas = counts["intervals"], counts["replicas"]
    m = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_S}
    m.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    m.update({
        "detection.us_per_interval":
            total_s.get("detection.simulate_dwell_stream", 0.0) / intervals * 1e6
            if intervals else 0.0,
        "detection.intervals": intervals,
        "detection.kept": counts["kept"],
        "detection.kept_ratio": counts["kept"] / intervals if intervals else 0.0,
        "protocol.sifted_bits": counts["sifted_bits"],
        "protocol.disclosed_bits": counts["disclosed_bits"],
        "protocol.leaked_bits": counts["leaked_bits"],
        "protocol.residual_errors": counts["residual_errors"],
        "protocol.final_key_bits": counts["pa_out_bits"],
        "protocol.pa_in_bits": counts["pa_in_bits"],
        "protocol.pa_out_bits": counts["pa_out_bits"],
        "protocol.pa_peak_alloc_mb": t["pa_peak_alloc_bytes"] / MB,
        "protocol.pa_computed_mb":
            counts["pa_in_bits"] * counts["pa_out_bits"] * PA_BYTES_PER_ENTRY / MB,
        "tomography.us_per_replica":
            total_s.get("tomography.bootstrap_metrics", 0.0) / replicas * 1e6
            if replicas else 0.0,
        "tomography.clamp_events": counts["clamp_events"],
        "cli.write.self_s": self_s.get("cli.cmd_session", 0.0) + self_s.get("cli.cmd_tomo", 0.0),
        "cli.records_csv_mb": rep.files.get("records.csv", 0) / MB,
        "cli.transcript_json_mb": rep.files.get("transcript.json", 0) / MB,
    })
    return m


def _ledger(rep: Rep) -> dict:
    c = rep.trace["counts"]
    stages = (("intervals", "intervals"), ("kept", "kept"), ("sifted", "sifted_bits"),
              ("disclosed", "disclosed_bits"), ("reconciled", "pa_in_bits"),
              ("leaked", "leaked_bits"), ("final", "pa_out_bits"))
    ledger = {stage: c.get(key, 0) for stage, key in stages}
    ledger["aborted"] = c.get("aborted", False)
    return ledger


def _spread(values: list[float]) -> dict:
    values = sorted(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"n": len(values), "min": values[0], "q1": q1,
            "median": statistics.median(values), "q3": q3, "max": values[-1]}


def _environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {"nproc": len(os.sched_getaffinity(0)),
            "total_ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MB,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


# ------------------------------------------------------------------------ run

def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    wl = WORKLOADS[name]
    work = WORK / f"{name}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    size = wl.smoke_size if smoke else wl.size
    # Untraced runs cycle through several program seeds, so that one run's
    # medians do not hang on one seed's key length; traced runs stay on one
    # seed, so that their counts repeat exactly.
    seeds = [seed * SEEDS_PER_RUN + j for j in range(1 if trace else SEEDS_PER_RUN)]
    configs = {}
    for program_seed in seeds:
        configs[program_seed] = work / f"config-{program_seed}.json"
        configs[program_seed].write_text(
            json.dumps(dict(wl.config, seed=program_seed, **{wl.size_key: size}), indent=2)
            + "\n", encoding="utf-8")

    # The first import compiles bytecode and fills the file cache; untimed.
    _spawn("import", work / "warmup.json", [])
    probes = [_spawn("import", work / f"probe{i}.json", [])
              for i in range(1 if smoke else SETUP_PROBES)]
    # Each seed runs at least twice, for the byte-identity check.
    min_rounds = 1 if smoke else 2 * len(seeds)
    reps: list[Rep] = []
    round_s: list[float] = []
    start = _now()
    while True:
        round_start = _now()
        program_seed = seeds[len(round_s) % len(seeds)]
        for traced in (False, True) if trace else (False,):
            reps.append(_run_rep(wl, program_seed, configs[program_seed],
                                 work / f"rep{len(reps)}", traced))
        round_s.append(_now() - round_start)
        # Start no round that would end after the deadline.
        if len(round_s) >= min_rounds and \
                _now() - start + statistics.median(round_s) > seconds:
            break

    first_digest = {}
    for rep in reps:
        if rep.digest != first_digest.setdefault(rep.seed, rep.digest):
            rep.problems.append(f"output bytes differ from the first repetition on seed {rep.seed}")
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    layer = [_layer_metrics(r) for r in traced]
    for rep, values in zip(traced[1:], layer[1:]):
        if any(v != layer[0][k] for k, v in values.items() if k not in MEASURED):
            rep.problems.append("traced counts differ from the first traced repetition")

    setup = [s for s in map(_setup_s, probes) if s is not None]
    setup += [r.setup_s for r in reps if r.setup_s is not None and not r.traced]
    if not setup:
        raise RuntimeError(f"no child imported qkdlab.cli; see the logs in {work}")
    end_to_end = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r.run_s for r in plain),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        "output_mb": statistics.median(r.output_mb for r in plain),
    }
    samples = {"setup_s": setup, "run_s": [r.run_s for r in plain],
               "peak_rss_mb": [r.peak_rss_mb for r in plain],
               "output_mb": [r.output_mb for r in plain]}
    per_layer = {}
    if traced:
        per_layer = {k: statistics.median(v[k] for v in layer) if k in MEASURED else layer[0][k]
                     for k in layer[0]}
        per_layer["bench.trace_overhead_s"] = (
            statistics.median(r.run_s for r in traced) - end_to_end["run_s"])
        samples["traced_run_s"] = [r.run_s for r in traced]

    failures = [{"rep": i, "seed": r.seed, "traced": r.traced, "problems": r.problems}
                for i, r in enumerate(reps) if r.problems]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "environment": _environment(),
        "inputs": {wl.size_key: size, "program_seeds": seeds, "config": wl.config},
        "attempted": len(reps), "failed": len(failures),
        "fail_share": len(failures) / len(reps), "failures": failures,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "spread": {k: _spread(v) for k, v in samples.items()},
        "ledger": _ledger(traced[0]) if traced and wl.kind == "session" else None,
        "absent_spans": sorted({n for r in traced for n in r.trace["absent"]}),
        "unavailable_counts": {k: v for r in traced for k, v in r.trace["unavailable"].items()},
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }


def _report(record: dict, spec: dict) -> dict:
    """Print every metric by name with its unit; return the result line."""
    group = "per_layer" if record["trace"] else "end_to_end"
    values = record[group]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    env = record["environment"]
    size = {k: v for k, v in record["inputs"].items() if k != "config"}
    print(f"{record['workload']} seed {record['seed']} {size}: {record['attempted']} "
          f"repetitions | nproc {env['nproc']}, {env['total_ram_mb']:.0f} MB RAM, "
          f"python {env['python']}, numpy {env['numpy']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_share = {record['fail_share']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} repetitions failed)")
    for failure in record["failures"]:
        print(f"  FAILED repetition {failure['rep']}: {'; '.join(failure['problems'])}")
    if record["ledger"]:
        print("  ledger: " + " -> ".join(f"{k} {v}" for k, v in record["ledger"].items()))
    for name in record["absent_spans"]:
        print(f"  span absent: {name} (its metrics read 0)")
    for name, why in record["unavailable_counts"].items():
        print(f"  count unavailable: {name}: {why}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs and one repetition, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qkdlab" / "cli.py").is_file():
        print(f"error: no qkdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _read_json(ROOT / "BENCHMARK.json")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    line = _report(record, spec)
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / (f"{args.workload}{'-smoke' if args.smoke else ''}"
                             f"-seed{args.seed}-trace{args.trace}.json")
    result_path.write_text(json.dumps(dict(record, metrics=line["metrics"]), indent=2) + "\n",
                           encoding="utf-8")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
