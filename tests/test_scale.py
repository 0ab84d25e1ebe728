"""Checks at scale, each on a fresh python child so its max RSS is its own:
a 10^6-interval session writes pinned bytes below 100 MB; an
intercept-abort session at 10^5 intervals and tomo at 200 000 bootstrap
replicas each stay within 4 MB of a child that imports what the command
imports (neither imports numpy.random); and an oversized counts file, config
or key file is refused in under a second within 4 MB of an import-only
child."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CLI = "import sys, qkdlab.cli; sys.exit(qkdlab.cli.main(sys.argv[1:]))"


# os.wait4 in a small python parent reads the child's own peak.  A child's
# max RSS also counts its parent's address space at the fork (Linux carries
# that peak through exec), and pytest's own is larger than the peaks checked
# here; RUSAGE_CHILDREN would be the running max over every child reaped so far.
WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _child(code, *args):
    """Exit code and max RSS in MB of one python child running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", WAIT4, sys.executable, "-c", code, *args],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    status, maxrss = out.split()
    # ru_maxrss is in KiB on Linux
    return int(status), int(maxrss) / 1024


def _run(tmp_path, command, body):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    return _child(CLI, command, "--config", str(config), "--out", str(tmp_path / "out"))


# the records.csv writer over 10^6 rows written in 4 096-row tiles, the
# summary, and the final key of about 5.5·10^4 bits
MILLION_GOLDEN = {
    "records.csv": "30cc673826f5a8aa5fd276ce8e20b780589613e914d5071dcd129175ee03126c",
    "summary.json": "d97d678704a47340f5fb4c0794e22c3edcad2428b19673286435ca98644c32e9",
    "transcript.json": "0e66c4a2f9fc5c7c66780b393f52418bf9ade47e9dd6ed53f8f6a3b22437453e",
}


def test_million_interval_session_writes_pinned_bytes_below_100_mb(tmp_path):
    status, rss_mb = _run(tmp_path, "session", {
        "kind": "session", "seed": 3, "n_intervals": 1000000, "source_noise": 0.04,
        "detector": {"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 0.9},
        "eve": {"mode": "absent"}})
    assert status == 0
    assert rss_mb < 100, f"max RSS {rss_mb:.1f} MB >= 100 MB"
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in MILLION_GOLDEN}
    assert digests == MILLION_GOLDEN


@functools.cache
def _import_only_mb(modules):
    """Max RSS in MB of a child that imports ``modules`` and builds one state."""
    return _child(f"import {modules}; qkdlab.bell_phi_plus()")[1]


@pytest.fixture(scope="module")
def import_only_mb():
    return _import_only_mb("qkdlab.cli, numpy.random, numpy.fft")


# (command, config, expected exit code, the modules of its import-only child);
# the session aborts at the error threshold (exit code 2)
WITHIN_4_MB_OF_IMPORT = {
    "intercept_abort_1e5": ("session", {
        "kind": "session", "seed": 5, "n_intervals": 100000, "source_noise": 0.0,
        "detector": {"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 0.0},
        "eve": {"mode": "intercept_resend", "basis_policy": "random_per_trial",
                "intercept_fraction": 1.0}}, 2, "qkdlab.cli, numpy.fft"),
    "tomo_2e5_replicas": ("tomo", {
        "kind": "tomo", "seed": 2, "source_noise": 0.04,
        "n_per_setting": 10000, "replicas": 200000}, 0, "qkdlab.cli, numpy.fft"),
}


@pytest.mark.parametrize("case", sorted(WITHIN_4_MB_OF_IMPORT))
def test_max_rss_stays_within_4_mb_of_import_only(tmp_path, case):
    command, body, expected, modules = WITHIN_4_MB_OF_IMPORT[case]
    import_only_mb = _import_only_mb(modules)
    status, rss_mb = _run(tmp_path, command, body)
    assert status == expected
    assert rss_mb - import_only_mb < 4, \
        f"max RSS {rss_mb:.1f} MB, {rss_mb - import_only_mb:+.1f} MB above import only"


def _oversized_counts(tmp_path):
    # a header, then one setting 2·10^6 times: 12 MB, refused at its second row
    counts = tmp_path / "counts.csv"
    counts.write_text("setting_a,setting_b,count\n" + "H,H,1\n" * 2_000_000)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "tomo", "seed": 1, "counts_file": str(counts)}))
    return ["tomo", "--config", str(config), "--out", str(tmp_path / "out")]


def _sparse(path, size):
    """``path`` as a file of ``size`` NUL bytes that takes no disk space."""
    with open(path, "wb") as fh:
        fh.truncate(size)
    return str(path)


def _config_from_a_pipe(tmp_path):
    # a pipe has no size, so the read stops one character past the cap; the
    # writer's 64 MiB bound the run's memory even if it does not
    fifo = tmp_path / "config.json"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb", buffering=0) as fh:
                fh.write(b" " * (64 << 20))
        except BrokenPipeError:   # the reader stopped and closed its end
            pass

    threading.Thread(target=feed, daemon=True).start()
    return ["session", "--config", str(fifo), "--out", str(tmp_path / "out")]


# each refused before it is parsed: past its first repeated row, or past the
# size cap of its reader
OVERSIZED_INPUTS = {
    "counts_file_12_mb": _oversized_counts,
    "config_64_mb": lambda tmp_path: [
        "session", "--config", _sparse(tmp_path / "config.json", 64 << 20),
        "--out", str(tmp_path / "out")],
    "config_from_a_pipe": _config_from_a_pipe,
    "key_file_64_mb": lambda tmp_path: [
        "otp", "encrypt", "--text", "QKD", "--key-file", _sparse(tmp_path / "key.json", 64 << 20)],
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_INPUTS))
def test_oversized_input_is_refused_in_bounded_time_and_memory(tmp_path, import_only_mb, case):
    argv = OVERSIZED_INPUTS[case](tmp_path)
    start = time.perf_counter()
    status, rss_mb = _child(CLI, *argv)
    elapsed = time.perf_counter() - start
    assert status == 1
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert rss_mb - import_only_mb < 4, \
        f"max RSS {rss_mb:.1f} MB, {rss_mb - import_only_mb:+.1f} MB above import only"
    assert not (tmp_path / "out").exists()
