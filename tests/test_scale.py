"""Checks at scale, each on a fresh python child so its max RSS is its own:
a 10^6-interval session writes pinned bytes below 100 MB, and an
intercept-abort session at 10^5 intervals and tomo at 200 000 bootstrap
replicas each stay within 4 MB of an import-only child."""

import hashlib
import json
import os
import subprocess
import sys

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


# the records.csv writer over indices of 1 to 6 digits, the summary, and the
# final key of about 5.6·10^4 bits
MILLION_GOLDEN = {
    "records.csv": "8b8d9eb2cf95c2e4b56ff28767097cd460402ce160e578d54ea87e210739f975",
    "summary.json": "e0ee7d7859c777e9044445e01f9ddfa1acec5ed8c58651631120d7f1af0d4530",
    "transcript.json": "95975a5739170387ba3eb4eb3a315a5177e7a634679823cf2c2638ee8fe67069",
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


@pytest.fixture(scope="module")
def import_only_mb():
    return _child("import qkdlab.cli, numpy.random, numpy.fft; qkdlab.bell_phi_plus()")[1]


# (command, config, expected exit code); the session aborts at the error
# threshold (exit code 2)
WITHIN_4_MB_OF_IMPORT = {
    "intercept_abort_1e5": ("session", {
        "kind": "session", "seed": 5, "n_intervals": 100000, "source_noise": 0.0,
        "detector": {"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 0.0},
        "eve": {"mode": "intercept_resend", "basis_policy": "random_per_trial",
                "intercept_fraction": 1.0}}, 2),
    "tomo_2e5_replicas": ("tomo", {
        "kind": "tomo", "seed": 2, "source_noise": 0.04,
        "n_per_setting": 10000, "replicas": 200000}, 0),
}


@pytest.mark.parametrize("case", sorted(WITHIN_4_MB_OF_IMPORT))
def test_max_rss_stays_within_4_mb_of_import_only(tmp_path, import_only_mb, case):
    command, body, expected = WITHIN_4_MB_OF_IMPORT[case]
    status, rss_mb = _run(tmp_path, command, body)
    assert status == expected
    assert rss_mb - import_only_mb < 4, \
        f"max RSS {rss_mb:.1f} MB, {rss_mb - import_only_mb:+.1f} MB above import only"
