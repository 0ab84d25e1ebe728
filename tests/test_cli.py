import csv
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qkdlab import cli, otp, tomography
from qkdlab.cli import ConfigError, _resolve_eve, load_config, main
from qkdlab.detection import DetectorConfig
from qkdlab.protocol import SessionConfig
from qkdlab.states import EveConfig, QuartzPlate
from qkdlab.tomography import TOMO_SCHEDULE, correlator

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    return str(path)


def session_body(**overrides):
    body = {
        "kind": "session", "seed": 5, "n_intervals": 2000,
        "source_noise": 0.0,
        "detector": {"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 0.0},
        "eve": {"mode": "absent"},
    }
    body.update(overrides)
    return body


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_session_writes_outputs_and_repeats_bytes(tmp_path):
    cfg = write_config(tmp_path, "s.json", session_body())
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    tree_a, tree_b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert set(tree_a) == {"records.csv", "transcript.json", "summary.json"}
    assert tree_a == tree_b
    assert json.loads(tree_a["summary.json"])["abort_reason"] is None


def test_session_output_files_agree(tmp_path):
    eve = {"mode": "intercept_resend", "basis_policy": "random_per_trial",
           "intercept_fraction": 0.3}
    body = session_body(n_intervals=3000, eve=eve,
                        detector={"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 1.0})
    cfg = write_config(tmp_path, "s.json", body)
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) in (0, 2)
    out = tmp_path / "a"
    with open(out / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text())
    transcript = json.loads((out / "transcript.json").read_text())

    # a kept interval is a row with both bits; no row holds exactly one
    with_bits = [r for r in records if r["alice_bit"] != "" and r["bob_bit"] != ""]
    assert not any((r["alice_bit"] == "") != (r["bob_bit"] == "") for r in records)
    sifted = [r for r in with_bits if r["alice_basis"] == r["bob_basis"]]
    assert summary["n_records"] == len(records) == 3000
    assert summary["n_kept"] == len(with_bits)
    assert summary["n_sifted"] == len(sifted) > 0
    assert summary["sifted_agreement"] == pytest.approx(
        sum(r["alice_bit"] == r["bob_bit"] for r in sifted) / len(sifted))
    assert set(transcript) == {"final_key_hex", "final_key_len"}
    assert transcript["final_key_len"] == summary["final_key_bits"]


# Frozen figures: the sha256 of every file of every session preset.  No
# LAPACK call enters these bytes and PA rounds its FFT product exactly, so
# they do not depend on the platform.
SESSION_GOLDEN = {
    "session_full_eve_da": (2, {
        "records.csv": "9897521ac5e82830053a15c7f71d791acf602ae26907d94f26080707c4357746",
        "summary.json": "4dffdc391f1033bfe34ebe94ead9c5b094b8cbac09897552290088725651f100",
        "transcript.json": "d4f3100392e6d18885d729f2aa759b0c48bd51903f346a505f55fcf95c366231",
    }),
    "session_intercept_random": (2, {
        "records.csv": "6289ce7da5a479001c4422bf07d12ac2e071110f867d26a5a0275a76fab9a2c6",
        "summary.json": "ac25bbf4863a331be5743469e5eeb3ee54debed4d475d041590a9dbee35d0d3c",
        "transcript.json": "d4f3100392e6d18885d729f2aa759b0c48bd51903f346a505f55fcf95c366231",
    }),
    "session_no_eve_ideal": (0, {
        "records.csv": "128bec64b442a40c68c18a12fc0aae29f8c60f95eb4eb12e77b74c7254ac2916",
        "summary.json": "f0d376b4e9e315198cb6225f14a257bf56b4aa742a396858260f07bcb20eab98",
        "transcript.json": "f6180eded59fab5c2dfa6c1817758acf38411cb3c4a8674722e973e350451910",
    }),
    "session_no_eve_imperfect": (0, {
        "records.csv": "96fd897562a6ea6e6b8efbabea5b3616c7876d621fcad09897d52497b1c07e15",
        "summary.json": "8b90bd53cafbfb2737c42fc2c517b5afd44c661b69013d1399d85148bd820b1b",
        "transcript.json": "8b2fc8a106ff5f8468d045ded210101ea4663811411e9b1df99fa218195b2846",
    }),
}


@pytest.mark.parametrize("preset", sorted(SESSION_GOLDEN))
def test_session_csv_golden(tmp_path, preset):
    code, digests = SESSION_GOLDEN[preset]
    cfg = os.path.join(CONFIG_DIR, preset + ".json")
    assert main(["session", "--config", cfg, "--out", str(tmp_path)]) == code
    tree = read_tree(tmp_path)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in tree.items()} == digests


# Frozen figures: every metrics.json field and every density_matrix.json
# entry (row-major, [re, im] per entry) of two tomo presets.
TOMO_GOLDEN = {
    "tomo_no_eve": (
        {"clamp_events": 0, "fidelity": 0.9741034561062596,
         "fidelity_sigma": 0.00998457988419363, "linear_entropy": 0.06680379316723635,
         "linear_entropy_sigma": 0.025423796548069626, "tangle": 0.9008810231784665,
         "tangle_sigma": 0.03684208517535316,
         "von_neumann": 0.17241219880597103, "von_neumann_sigma": 0.06084833445552825},
        [0.4884354437781648, 0.0, -0.002929968268565452,
         -0.0029604903119440857, -0.007716849179606743, -0.002741144937255299,
         0.4863476170578805, 0.009972898992744124, -0.002929968268565452,
         0.0029604903119440857, 0.012428272482551989, 0.0,
         0.0015944966674661515, -0.012088931555018027, -0.001261609145283895,
         -0.0025271311359255, -0.007716849179606743, 0.002741144937255299,
         0.0015944966674661515, 0.012088931555018027, 0.012060049420689684,
         0.0, -0.0022585890362358347, 0.0035726256260240814,
         0.4863476170578805, -0.009972898992744124, -0.001261609145283895,
         0.0025271311359255, -0.0022585890362358347, -0.0035726256260240814,
         0.4870762343185935, 0.0]),
    "tomo_partial_eve": (
        {"clamp_events": 0, "fidelity": 0.8716295311976952,
         "fidelity_sigma": 0.011539225164454969, "linear_entropy": 0.3058498832330271,
         "linear_entropy_sigma": 0.024220081864392316, "tangle": 0.5552863079410884,
         "tangle_sigma": 0.03472421899449434,
         "von_neumann": 0.6569699574549923, "von_neumann_sigma": 0.04221724878040794},
        [0.4886885002362767, 0.0, -0.005632066138218194,
         0.0035458297837036748, -0.007834478445035934, 0.008790320112790538,
         0.38971129277775696, -0.0014674947637839581, -0.005632066138218194,
         -0.0035458297837036748, 0.018532929194784324, 0.0,
         0.016611454933914773, -0.0001546553725153394, 0.01104012043250592,
         0.007978254863512082, -0.007834478445035934, -0.008790320112790538,
         0.016611454933914773, 0.0001546553725153394, 0.017630593965339225,
         0.0, -0.006157000180458427, -0.011345405895729858,
         0.38971129277775696, 0.0014674947637839581, 0.01104012043250592,
         -0.007978254863512082, -0.006157000180458427, 0.011345405895729858,
         0.47514797660359986, 0.0]),
}

# Frozen figures: the sha256 of counts.csv of every tomo preset.  The counts
# are drawn from the raw words of qkdlab.pcg64 and no LAPACK call enters
# them, so they depend neither on the platform nor on a numpy.random stream.
TOMO_COUNTS_GOLDEN = {
    "tomo_full_eve_da": "d9c9fceac4298937cb38ec27a54b552c3d3422ee51bb1bb97006dd62b987fcd4",
    "tomo_full_eve_hv": "3afcfafe013ba5a7b1aa72004c6dc9c65b3e9a1dcfaf97044cb3055eff2c3d79",
    "tomo_no_eve": "948279a9c74444a268994ac002be8d8c8507999ca90ac0e2466a380659031b9a",
    "tomo_partial_eve": "4079512e105d02378f7443ae3ba80b6f5083d270301d555010efdd9c0a8040a2",
}


@pytest.mark.parametrize("preset", sorted(TOMO_COUNTS_GOLDEN))
def test_tomo_counts_csv_golden(tmp_path, preset):
    cfg = os.path.join(CONFIG_DIR, preset + ".json")
    assert main(["tomo", "--config", cfg, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "counts.csv").read_bytes()).hexdigest()
    assert digest == TOMO_COUNTS_GOLDEN[preset]


@pytest.mark.parametrize("preset", sorted(TOMO_GOLDEN))
def test_tomo_outputs_golden(tmp_path, preset):
    cfg = os.path.join(CONFIG_DIR, preset + ".json")
    assert main(["tomo", "--config", cfg, "--out", str(tmp_path)]) == 0
    metrics, rho = TOMO_GOLDEN[preset]
    assert json.loads((tmp_path / "metrics.json").read_text()) == pytest.approx(metrics, rel=1e-9)
    written = json.loads((tmp_path / "density_matrix.json").read_text())["rho"]
    assert np.ravel(written).tolist() == pytest.approx(rho, rel=1e-9)


# Frozen figures: bell.json's four correlators and S of the two bell presets.
# Under full HV dephasing E(a',b) and E(a',b') are zero but for rounding,
# hence the absolute tolerance.
BELL_GOLDEN = {
    "bell_no_eve": (
        {"E(a,b)": 0.7071067811865475, "E(a,b')": -0.7071067811865475,
         "E(a',b)": 0.7071067811865477, "E(a',b')": 0.7071067811865476},
        2.8284271247461903),
    "bell_full_eve_hv": (
        {"E(a,b)": 0.7071067811865475, "E(a,b')": -0.7071067811865475,
         "E(a',b)": 1.6653345369377348e-16, "E(a',b')": -1.6653345369377348e-16},
        1.414213562373095),
}


@pytest.mark.parametrize("preset", sorted(BELL_GOLDEN))
def test_bell_outputs_golden(tmp_path, preset):
    cfg = os.path.join(CONFIG_DIR, preset + ".json")
    assert main(["bell", "--config", cfg, "--out", str(tmp_path)]) == 0
    correlators, s_value = BELL_GOLDEN[preset]
    written = json.loads((tmp_path / "bell.json").read_text())
    e = written["correlators"]
    assert e == pytest.approx(correlators, rel=1e-9, abs=1e-12)
    assert written["s_value"] == pytest.approx(s_value, rel=1e-9)
    assert written["s_value"] == e["E(a,b)"] - e["E(a,b')"] + e["E(a',b)"] + e["E(a',b')"]


def test_bell_evaluates_each_correlator_once(tmp_path, monkeypatch):
    # S is summed from the table's four correlators, not evaluated again
    calls = []

    def counted(state, alpha, beta):
        calls.append((alpha, beta))
        return correlator(state, alpha, beta)

    monkeypatch.setattr(cli, "correlator", counted)
    monkeypatch.setattr(tomography, "correlator", counted)
    cfg = os.path.join(CONFIG_DIR, "bell_no_eve.json")
    assert main(["bell", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == [(0.0, 22.5), (0.0, 67.5), (45.0, 22.5), (45.0, 67.5)]


def test_cli_import_leaves_numpy_random_and_fft_unloaded():
    # numpy.random and numpy.fft load on first use; importing them with the
    # CLI would only move their cost into every command's start-up
    probe = ("import json, sys\n"
             "lazy = ('numpy.random', 'numpy.fft')\n"
             "import numpy\n"
             "with_numpy = [m for m in lazy if m in sys.modules]\n"
             "import qkdlab.cli\n"
             "print(json.dumps([with_numpy, [m for m in lazy if m in sys.modules]]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    with_numpy, with_cli = json.loads(out)
    if with_numpy:
        pytest.skip(f"import numpy alone loads {', '.join(with_numpy)}")
    assert with_cli == []


def test_every_preset_leaves_numpy_random_unloaded(tmp_path):
    # sessions and tomo draw from qkdlab.pcg64, whose jump-ahead tables are
    # built on first use, never at import; a preset's command is its name
    # up to the first "_"
    presets = sorted(os.listdir(CONFIG_DIR))
    probe = ("import json, os, sys\n"
             "import numpy\n"
             "preloaded = 'numpy.random' in sys.modules\n"
             "import qkdlab.cli, qkdlab.pcg64\n"
             "runs = [qkdlab.pcg64._tables.cache_info().currsize]\n"
             "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
             "    command = os.path.basename(config).split('_')[0]\n"
             "    code = qkdlab.cli.main([command, '--config', config, '--out', out])\n"
             "    runs.append([code, 'numpy.random' in sys.modules])\n"
             "print(json.dumps([preloaded, runs]))\n")
    args = [arg for i, name in enumerate(presets)
            for arg in (os.path.join(CONFIG_DIR, name), str(tmp_path / str(i)))]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    preloaded, runs = json.loads(out.splitlines()[-1])
    if preloaded:
        pytest.skip("import numpy alone loads numpy.random")
    tables_at_import, *results = runs
    assert not tables_at_import
    assert len(results) == 10
    for name, (code, loaded) in zip(presets, results):
        preset = name[:-len(".json")]
        assert code == (SESSION_GOLDEN[preset][0] if preset in SESSION_GOLDEN else 0), name
        assert not loaded, f"{name} imported numpy.random"


def test_shorter_session_records_are_a_prefix(tmp_path):
    # 70 000 intervals end inside the second block of 65 536
    trees = []
    for n in (70_000, 140_000):
        cfg = write_config(tmp_path, f"s{n}.json",
                           session_body(n_intervals=n, source_noise=0.04,
                                        detector={"dwell": 0.1, "pair_rate": 10.0,
                                                  "dark_rate": 0.9}))
        assert main(["session", "--config", cfg, "--out", str(tmp_path / str(n))]) == 0
        trees.append(read_tree(tmp_path / str(n)))
    short, long = trees[0]["records.csv"], trees[1]["records.csv"]
    assert short.count(b"\n") == 70_001 and long.count(b"\n") == 140_001
    assert long.startswith(short)


def test_intercept_session_memory_is_bounded_by_the_key(tmp_path):
    # 4*10^6 intervals abort at QBER ~0.25 before Cascade: only the sifted
    # bits (~0.7 MB per party) and one block at a time stay in memory
    eve = {"mode": "intercept_resend", "basis_policy": "random_per_trial",
           "intercept_fraction": 1.0}
    cfg = write_config(tmp_path, "s.json", session_body(n_intervals=4_000_000, eve=eve))
    tracemalloc.start()
    try:
        code = main(["session", "--config", cfg, "--out", str(tmp_path / "a")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["n_records"] == 4_000_000
    assert summary["abort_reason"] == "qber_above_threshold"
    records = tmp_path / "a" / "records.csv"
    with open(records, "rb") as fh:
        assert sum(1 for _ in fh) == 4_000_001
    records.unlink()


def test_bell_refuses_seed_flag(tmp_path, capsys):
    # bell draws nothing, so it has no seed to override
    cfg = os.path.join(CONFIG_DIR, "bell_no_eve.json")
    assert main(["bell", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "a")]) == 1
    assert "error: unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in config: seed "):
        load_config(cfg, "bell", seed_override=3)


def test_session_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path, "s.json", session_body())
    main(["session", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["session", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "c")])
    assert read_tree(tmp_path / "a")["records.csv"] != read_tree(tmp_path / "c")["records.csv"]


def test_session_abort_exit_code(tmp_path):
    eve = {"mode": "dephasing", "basis_angle": 45.0, "strength": 1.0,
           "basis_policy": "fixed"}
    cfg = write_config(tmp_path, "s.json", session_body(seed=13, eve=eve))
    code = main(["session", "--config", cfg, "--out", str(tmp_path / "a")])
    assert code == 2
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["aborted"] is True
    assert summary["abort_reason"] == "qber_above_threshold"
    transcript = json.loads((tmp_path / "a" / "transcript.json").read_text())
    assert transcript == {"final_key_hex": "", "final_key_len": 0}


def test_session_that_distils_no_key_aborts(tmp_path, capsys):
    # Q ~ 0.10 passes the 0.11 threshold, but Cascade's leak and the tag
    # leave privacy amplification no bit to keep
    eve = {"mode": "intercept_resend", "basis_angle": 0.0, "intercept_fraction": 0.40}
    cfg = write_config(tmp_path, "s.json", {
        "kind": "session", "seed": 0, "n_intervals": 100000, "source_noise": 0.0,
        "detector": {"dark_rate": 0.0}, "eve": eve})
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().out == ("sifted 18441 bits, agreement 0.8978, qber 0.0995, "
                                       "final key 0 bits [aborted: no_key_after_amplification]\n")
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["aborted"] is True
    assert summary["abort_reason"] == "no_key_after_amplification"
    assert summary["qber_estimate"] <= 0.11 and summary["final_key_bits"] == 0
    transcript = json.loads((tmp_path / "a" / "transcript.json").read_text())
    assert transcript == {"final_key_hex": "", "final_key_len": 0}


def test_unknown_config_key_rejected(tmp_path, capsys):
    # a misspelt key, and the protocol's constants, keys no longer read
    for key, value in (("qber_sampel_fraction", 0.2), ("pa_safety_bits", 30),
                       ("qber_sample_fraction", 0.2), ("abort_threshold", 0.11),
                       ("reconciliation_passes", 4)):
        cfg = write_config(tmp_path, "s.json", session_body(**{key: value}))
        assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
        assert f"unknown key(s) in config: {key}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("key, section", [
    ("eve", 5), ("plate", [1]), ("eve", []), ("detector", "x"), ("eve", None)])
def test_config_section_must_be_an_object(tmp_path, capsys, key, section):
    cfg = write_config(tmp_path, "s.json", session_body(**{key: section}))
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config section '{key}' must be a JSON object\n"
    assert not (tmp_path / "a").exists()


def test_wrong_kind_rejected(tmp_path):
    cfg = write_config(tmp_path, "s.json", session_body(kind="tomo"))
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1


def test_missing_seed_rejected(tmp_path):
    body = session_body()
    del body["seed"]
    cfg = write_config(tmp_path, "s.json", body)
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1


@pytest.mark.parametrize("config_seed, override", [(-1, None), (5, "-1")])
def test_negative_seed_rejected_before_any_output(tmp_path, capsys, config_seed, override):
    cfg = write_config(tmp_path, "s.json", session_body(seed=config_seed))
    argv = ["session", "--config", cfg, "--out", str(tmp_path / "a")]
    if override is not None:
        argv += ["--seed", override]
    assert main(argv) == 1
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_eve_validation_propagates(tmp_path):
    cfg = write_config(tmp_path, "s.json",
                       session_body(eve={"mode": "dephasing", "strength": 2.0}))
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1


def test_tomo_high_flux_metrics(tmp_path):
    body = {"kind": "tomo", "seed": 3, "source_noise": 0.0,
            "n_per_setting": 1e6, "replicas": 20, "eve": {"mode": "absent"}}
    cfg = write_config(tmp_path, "t.json", body)
    assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    metrics = json.loads((tmp_path / "a" / "metrics.json").read_text())
    assert metrics["tangle"] >= 0.99


def test_tomo_counts_file_roundtrip(tmp_path):
    body = {"kind": "tomo", "seed": 8, "source_noise": 0.04,
            "n_per_setting": 5000, "replicas": 25,
            "eve": {"mode": "dephasing", "basis_angle": 0.0, "strength": 1.0}}
    cfg = write_config(tmp_path, "t.json", body)
    main(["tomo", "--config", cfg, "--out", str(tmp_path / "a")])
    # a run from a counts file reads no simulation key
    body = {"kind": "tomo", "seed": 8, "replicas": 25}
    body2 = dict(body, counts_file=str(tmp_path / "a" / "counts.csv"))
    cfg2 = write_config(tmp_path, "t2.json", body2)
    main(["tomo", "--config", cfg2, "--out", str(tmp_path / "b")])
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert a["density_matrix.json"] == b["density_matrix.json"]
    assert a["metrics.json"] == b["metrics.json"]
    # a counts file saved with a UTF-8 byte-order mark reads the same
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "a" / "counts.csv").read_bytes())
    cfg3 = write_config(tmp_path, "t3.json", dict(body, counts_file=str(bom)))
    assert main(["tomo", "--config", cfg3, "--out", str(tmp_path / "c")]) == 0
    c = read_tree(tmp_path / "c")
    assert c["density_matrix.json"] == a["density_matrix.json"]
    assert c["metrics.json"] == a["metrics.json"]
    # so does a header with spaces after its commas, as data rows may have
    spaced = tmp_path / "spaced.csv"
    rows = (tmp_path / "a" / "counts.csv").read_text().splitlines(keepends=True)
    spaced.write_text("setting_a, setting_b, count\n" + "".join(rows[1:]))
    cfg4 = write_config(tmp_path, "t4.json", dict(body, counts_file=str(spaced)))
    assert main(["tomo", "--config", cfg4, "--out", str(tmp_path / "d")]) == 0
    assert read_tree(tmp_path / "d")["density_matrix.json"] == a["density_matrix.json"]
    # counts of 10^10 and more keep every digit, so the file gives back the same run
    big = {"kind": "tomo", "seed": 1, "replicas": 2}
    cfg5 = write_config(tmp_path, "t5.json", dict(big, n_per_setting=1e11))
    assert main(["tomo", "--config", cfg5, "--out", str(tmp_path / "e")]) == 0
    cfg6 = write_config(tmp_path, "t6.json",
                        dict(big, counts_file=str(tmp_path / "e" / "counts.csv")))
    assert main(["tomo", "--config", cfg6, "--out", str(tmp_path / "f")]) == 0
    e, f = read_tree(tmp_path / "e"), read_tree(tmp_path / "f")
    assert "H,H,50000007368\n" in e["counts.csv"].decode()
    assert e["density_matrix.json"] == f["density_matrix.json"]
    assert e["metrics.json"] == f["metrics.json"]
    assert e["counts.csv"] == f["counts.csv"]


def test_tomo_partial_gating_equals_scaled_strength(tmp_path):
    # Bernoulli-gated dephasing averages linearly, so (strength 1, fraction
    # 0.5) and (strength 0.5, fraction 1) describe the same beam
    base = {"kind": "tomo", "seed": 4, "source_noise": 0.0,
            "n_per_setting": 4000, "replicas": 20}
    gated = dict(base, eve={"mode": "dephasing", "strength": 1.0,
                            "intercept_fraction": 0.5})
    scaled = dict(base, eve={"mode": "dephasing", "strength": 0.5})
    main(["tomo", "--config", write_config(tmp_path, "g.json", gated),
          "--out", str(tmp_path / "a")])
    main(["tomo", "--config", write_config(tmp_path, "s.json", scaled),
          "--out", str(tmp_path / "b")])
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert a["density_matrix.json"] == b["density_matrix.json"]


def test_tomo_malformed_counts_file(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("setting_a,setting_b,count\nHH,HH,100\n")
    body = {"kind": "tomo", "seed": 1, "counts_file": str(counts)}
    cfg = write_config(tmp_path, "t.json", body)
    assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    assert "outside the 16-setting schedule: HH,HH" in capsys.readouterr().err


def test_tomo_counts_file_repeated_setting_rejected(tmp_path, capsys):
    body = {"kind": "tomo", "seed": 8, "n_per_setting": 5000, "replicas": 25}
    main(["tomo", "--config", write_config(tmp_path, "t.json", body),
          "--out", str(tmp_path / "a")])
    counts = tmp_path / "a" / "counts.csv"
    counts.write_text(counts.read_text() + "H,H,999999\n")
    del body["n_per_setting"]   # a run from a counts file does not read it
    cfg = write_config(tmp_path, "t2.json", dict(body, counts_file=str(counts)))
    assert main(["tomo", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "counts file repeats the HH setting" in capsys.readouterr().err
    assert not (tmp_path / "b" / "metrics.json").exists()


_PLATE_NEEDS_FIXED = ("a quartz plate fixes the dephasing axis, "
                      "so it needs eve.basis_policy 'fixed'")


@pytest.mark.parametrize("kind, body, error", [
    ("tomo", {"n_per_setting": 0}, "n_per_setting must be positive"),
    ("tomo", {"replicas": 1}, "bootstrap needs 2 to 10000000 replicas, got 1"),
    ("tomo", {"counts_file": "malformed.csv"}, "counts file is missing the HV setting"),
    # an empty path is an unreadable file, not a request to simulate
    ("tomo", {"counts_file": ""}, "cannot read counts file: "),
    ("bell", {"angles": [0.0, 45.0, 22.5]}, "config: angles must be four finite numbers"),
    # a plate's axis would be ignored by an Eve who picks her basis per trial
    ("tomo", {"eve": {"mode": "dephasing", "basis_policy": "random_per_trial"},
              "plate": {"thickness_mm": 1.0}}, _PLATE_NEEDS_FIXED),
    ("session", {"eve": {"mode": "dephasing", "basis_policy": "random_per_trial"},
                 "plate": {"thickness_mm": 1.0}}, _PLATE_NEEDS_FIXED),
    # above tomography.MAX_REPLICAS: refused before any replica is drawn
    ("tomo", {"replicas": 10 ** 12}, "bootstrap needs 2 to 10000000 replicas, got 1000000000000"),
    # an unknown key: the pass count is the constant protocol.CASCADE_PASSES
    ("session", {"reconciliation_passes": 33},
     "unknown key(s) in config: reconciliation_passes"),
    # above protocol.MAX_INTERVALS: refused before records.csv is opened
    ("session", {"n_intervals": 10 ** 400}, "config: n_intervals must be in [1, 100000000]"),
    # above tomography.MAX_COUNT: a count would not fit an int64 at ~9.2e18,
    # and the sampler's law is tested up to 1e18
    ("tomo", {"n_per_setting": 1e300}, "n_per_setting must be at most 1e+18"),
    ("tomo", {"n_per_setting": 2e19}, "n_per_setting must be at most 1e+18"),
    # ... or the bootstrap's resampling of the count
    ("tomo", {"counts_file": "huge.csv"}, "counts file count '2e19' is not in [0, 1e+18]"),
], ids=["no_counts_per_setting", "one_replica", "counts_missing_a_setting", "empty_counts_path",
        "three_angles", "tomo_plate_under_random_bases", "session_plate_under_random_bases",
        "replicas_above_max", "protocol_constant_key", "intervals_above_max",
        "counts_per_setting_1e300", "counts_per_setting_2e19", "counts_file_count_2e19"])
def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch, capsys, kind, body, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "malformed.csv").write_text("setting_a,setting_b,count\nH,H,100\n")
    (tmp_path / "huge.csv").write_text("".join(
        f"{a.value},{b.value},{'2e19' if i == 5 else 100}\n"
        for i, (a, b) in enumerate(TOMO_SCHEDULE)))
    if kind != "bell":  # a seed only where the run reads one: each case fails for its own reason
        body = dict(body, seed=1)
    cfg = write_config(tmp_path, "c.json", dict(body, kind=kind))
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not (tmp_path / "a").exists()


_FROM_COUNTS = json.dumps({"kind": "tomo", "seed": 1, "counts_file": "counts.csv"})
_ALL_SETTINGS = "".join(f"{a.value},{b.value},100\n" for a, b in TOMO_SCHEDULE)
_COUNTS_ONLY = "unknown key(s) in config: %s (it reads counts_file, kind, replicas, seed)"


def _from_counts(**keys):
    return json.dumps(dict(json.loads(_FROM_COUNTS), **keys))


@pytest.mark.parametrize("kind, config, counts, error", [
    ("session", json.dumps(session_body(eve={"mode": "intercept_resend"},
                                        plate={"thickness_mm": 1.0})),
     None, "a quartz plate only makes sense with eve.mode 'dephasing'"),
    ("session", None, None, "cannot read config: "),
    ("session", "{", None, "config is not valid JSON: "),
    ("session", "[]", None, "config must be a JSON object"),
    ("session", "[" * 100_000 + "]" * 100_000, None,
     "config is not valid JSON: maximum recursion depth exceeded"),
    ("tomo", _FROM_COUNTS, None, "cannot read counts file: "),
    ("tomo", _FROM_COUNTS, "H,H\n", "counts file row has 2 fields, expected 3"),
    ("tomo", _FROM_COUNTS, "H,H,many\n", "bad count value 'many'"),
    ("tomo", _FROM_COUNTS, _ALL_SETTINGS + "A,A,100\n",
     "counts file has settings outside the 16-setting schedule: A,A\n"),
    # an unknown setting is refused at its own row, which the error names
    ("tomo", _FROM_COUNTS, _ALL_SETTINGS.replace("R,V,100", "X,Y,5"),
     "counts file has settings outside the 16-setting schedule: X,Y\n"),
    ("tomo", _FROM_COUNTS, "H,H,100\n X , Y ,5\nH,H\n",
     "counts file has settings outside the 16-setting schedule: X,Y\n"),
    # a field over the csv module's 131 072-character limit
    ("tomo", _FROM_COUNTS, "setting_a,setting_b,count\nH,H," + "1" * 200_000 + "\n",
     "counts file is not valid CSV: field larger than field limit (131072)\n"),
    # a plate sets Eve's axis and strength; the eve section may not set them too
    ("session", json.dumps(session_body(eve={"mode": "dephasing", "strength": 1.0},
                                        plate={"thickness_mm": 1.0})),
     None, "eve.strength cannot be set beside a quartz plate"),
    ("tomo", json.dumps({"kind": "tomo", "seed": 1, "plate": {"thickness_mm": 1.0},
                         "eve": {"mode": "dephasing", "basis_angle": 45.0, "strength": 1.0}}),
     None, "eve.basis_angle and eve.strength cannot be set beside a quartz plate"),
    # a key that Eve's mode or basis policy never reads
    ("session", json.dumps(session_body(eve={"mode": "dephasing", "basis_angle": 22.5,
                                             "basis_policy": "random_per_trial"})),
     None, "eve.basis_angle has no effect under eve.mode 'dephasing' "
           "with eve.basis_policy 'random_per_trial'"),
    ("tomo", json.dumps({"kind": "tomo", "seed": 1,
                         "eve": {"mode": "intercept_resend", "strength": 0.3}}),
     None, "eve.strength has no effect under eve.mode 'intercept_resend'"),
    ("bell", json.dumps({"kind": "bell",
                         "eve": {"mode": "absent", "intercept_fraction": 0.5}}),
     None, "eve.intercept_fraction has no effect under eve.mode 'absent'"),
    # a key that the run never reads: bell draws nothing, and a run from a
    # counts file simulates nothing
    ("bell", json.dumps({"kind": "bell", "seed": 1}), None,
     "unknown key(s) in config: seed (it reads angles, eve, kind, plate, source_noise)"),
    ("tomo", _from_counts(n_per_setting=5), _ALL_SETTINGS, _COUNTS_ONLY % "n_per_setting"),
    ("tomo", _from_counts(source_noise=0.9), _ALL_SETTINGS, _COUNTS_ONLY % "source_noise"),
    ("tomo", _from_counts(eve={"mode": "dephasing", "strength": 1.0, "basis_angle": 45.0}),
     _ALL_SETTINGS, _COUNTS_ONLY % "eve"),
    ("tomo", _from_counts(plate={"thickness_mm": 1.0}), _ALL_SETTINGS, _COUNTS_ONLY % "plate"),
    # a run's keys are its config class's fields, plus kind and plate
    ("session", json.dumps(session_body(bogus=1)), None,
     "unknown key(s) in config: bogus (it reads detector, eve, kind, n_intervals, plate, seed, "
     "source_noise)"),
    ("tomo", json.dumps({"kind": "tomo", "seed": 1, "bogus": 1}), None,
     "unknown key(s) in config: bogus (it reads counts_file, eve, kind, n_per_setting, plate, "
     "replicas, seed, source_noise)"),
    # an out-of-range source_noise gets the session's text, which names the key
    ("bell", json.dumps({"kind": "bell", "source_noise": 1.5}), None,
     "config: source_noise must be in [0, 1]\n"),
    ("tomo", json.dumps({"kind": "tomo", "seed": 1, "source_noise": -0.5}), None,
     "config: source_noise must be in [0, 1]\n"),
    # an integer past Python's int-string digit limit is a JSON error that names the file
    ("session", '{"kind": "session", "seed": ' + "1" * 5001 + "}", None,
     "config is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["plate_without_dephasing", "unreadable_config", "config_not_json",
        "config_a_list", "config_nested_too_deep", "unreadable_counts", "counts_row_of_two",
        "count_not_a_number", "counts_17th_setting", "counts_setting_outside_schedule",
        "counts_stop_at_setting_outside_schedule", "counts_field_over_csv_limit",
        "plate_beside_eve_strength", "plate_beside_eve_axis", "axis_under_random_bases",
        "strength_under_intercept", "key_under_absent_eve", "seed_for_bell",
        "n_per_setting_from_counts", "source_noise_from_counts", "eve_from_counts",
        "plate_from_counts", "session_unknown_key", "tomo_unknown_key",
        "bell_source_noise_above_1", "tomo_source_noise_below_0", "config_int_over_digit_limit"])
def test_bad_input_files_exit_1(tmp_path, monkeypatch, capsys, kind, config, counts, error):
    # a config of None is a missing file, and so is counts.csv with counts None
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "c.json").write_text(config, encoding="utf-8")
    if counts is not None:
        (tmp_path / "counts.csv").write_text(counts, encoding="utf-8")
    assert main([kind, "--config", "c.json", "--out", "a"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("which, content, error", [
    ("config", b"\xff\xfe{}", "cannot read config: 'utf-8' codec can't decode byte 0xff"),
    ("counts", b"\xff\xfeH,H,1\n",
     "cannot read counts file: 'utf-8' codec can't decode byte 0xff"),
    ("key", b"\xff\xfe{}", "cannot read key file: 'utf-8' codec can't decode byte 0xff"),
    ("key", b"[" * 100_000 + b"]" * 100_000,
     "key file is not valid JSON: maximum recursion depth exceeded"),
    ("key", b"{bad",
     "key file is not valid JSON: Expecting property name enclosed in double quotes"),
    ("key", None, "cannot read key file: [Errno 21] Is a directory: '.'"),
    ("key", b'{"final_key_hex": "ab", "final_key_len": ' + b"1" * 5001 + b"}",
     "key file is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    # above the size caps: refused before a byte is parsed
    ("config", (1 << 20) + 1, "config is larger than 1048576 bytes\n"),
    ("key", 10 ** 8 // 4 + (1 << 20) + 1, "key file is larger than 26048576 bytes\n"),
], ids=["config_utf16", "counts_utf16", "key_utf16", "key_too_deep",
        "key_not_json", "key_a_directory", "key_int_over_digit_limit", "config_over_size_cap",
        "key_over_size_cap"])
def test_unreadable_input_error_names_its_file(tmp_path, monkeypatch, capsys, which, content,
                                               error):
    # content None is the working directory itself as the path, and an int
    # the size of a file of NUL bytes that takes no disk space
    monkeypatch.chdir(tmp_path)
    path = {"config": "c.json", "counts": "counts.csv", "key": "key.json"}[which]
    if content is None:
        path = "."
    elif isinstance(content, int):
        with open(tmp_path / path, "wb") as fh:
            fh.truncate(content)
    else:
        (tmp_path / path).write_bytes(content)
    if which == "key":
        argv = ["otp", "encrypt", "--text", "A", "--key-file", path]
    else:
        if which == "counts":
            (tmp_path / "c.json").write_text(_FROM_COUNTS, encoding="utf-8")
        argv = ["session" if which == "config" else "tomo", "--config", "c.json", "--out", "a"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "a").exists()


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    cfg = write_config(tmp_path, "s.json", {"kind": "session", "seed": 5})
    assert load_config(cfg, "session") == SessionConfig(seed=5)

    cfg = write_config(tmp_path, "d.json", {"kind": "session", "seed": 5,
                                            "detector": {"dark_rate": 0.7}})
    assert load_config(cfg, "session").detector == DetectorConfig(dark_rate=0.7)
    # a section field is a field like any other: absent, it takes its default factory
    assert cli._parse_section(tomography.TomoConfig, {"seed": 1}, "config").eve == EveConfig()

    cfg = write_config(tmp_path, "t.json", {"kind": "tomo", "seed": 5,
                                            "eve": {"mode": "dephasing"},
                                            "plate": {"thickness_mm": 1.0}})
    expected = _resolve_eve(tomography.TomoConfig(seed=5, eve=EveConfig(mode="dephasing")),
                            QuartzPlate(1.0), {"eve": {"mode": "dephasing"}})
    assert load_config(cfg, "tomo") == expected

    cfg = write_config(tmp_path, "p.json", {"kind": "tomo", "seed": 5,
                                            "eve": {"mode": "dephasing"},
                                            "plate": {"birefringence": 0.01}})
    with pytest.raises(ConfigError, match="missing required key 'thickness_mm' in plate"):
        load_config(cfg, "tomo")


def _section_classes(cls):
    yield cls
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(cli._TYPES.get(f.type)):
            yield from _section_classes(cli._TYPES[f.type])


@pytest.mark.parametrize("top", [SessionConfig, tomography.TomoConfig, tomography.BellConfig,
                                 QuartzPlate], ids=lambda cls: cls.__name__)
def test_every_config_field_has_a_parsed_type(top):
    untyped = [f"{cls.__name__}.{f.name}: {f.type}" for cls in _section_classes(top)
               for f in dataclasses.fields(cls) if f.type not in cli._TYPES]
    assert not untyped, "config fields of a type the parser cannot read: " + ", ".join(untyped)


def test_an_error_without_text_prints_its_class_name(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(cli, "load_config", exhausted)
    assert main(["session", "--config", "c.json", "--out", "a"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_bell_prints_canonical_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json",
                       {"kind": "bell", "source_noise": 0.0,
                        "angles": [0.0, 45.0, 22.5, 67.5], "eve": {"mode": "absent"}})
    assert main(["bell", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "2.828427"
    payload = json.loads((tmp_path / "a" / "bell.json").read_text())
    assert payload["s_value"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 pytest.param(10 ** 400, id="10**400")])
def test_bell_rejects_non_finite_angle(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, "b.json",
                       {"kind": "bell", "source_noise": 0.0,
                        "angles": [0.0, 45.0, bad, 67.5], "eve": {"mode": "absent"}})
    assert main(["bell", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert "angles" in err and "finite" in err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("angles", [[True, 45.0, 22.5, 67.5], [0.0, 45.0, 22.5, False]])
def test_bell_rejects_boolean_angle(tmp_path, capsys, angles):
    cfg = write_config(tmp_path, "b.json",
                       {"kind": "bell", "source_noise": 0.0,
                        "angles": angles, "eve": {"mode": "absent"}})
    assert main(["bell", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    assert "angles must be four finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "a" / "bell.json").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 pytest.param(10 ** 400, id="10**400")])
def test_session_rejects_non_finite_number(tmp_path, capsys, bad):
    body = session_body(detector={"dwell": 0.1, "pair_rate": 10.0, "dark_rate": bad})
    cfg = write_config(tmp_path, "s.json", body)
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert "dark_rate" in err and "finite" in err
    assert not (tmp_path / "a").exists()


def test_session_rejects_overflowing_detector_rates(tmp_path, capsys):
    # every number is finite, but pair_rate * dwell is not: the rate tables
    # would be NaN and every interval would be kept with bits (1, 1)
    body = session_body(n_intervals=20000,
                        detector={"dwell": 1e200, "pair_rate": 1e200, "dark_rate": 0.0})
    cfg = write_config(tmp_path, "s.json", body)
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("plate", [
    {"thickness_mm": 1e300},
    {"thickness_mm": 1.0, "birefringence": 1e300},
    {"thickness_mm": 1.0, "birefringence": -1e300},
], ids=["thick", "birefringent", "negative_birefringence"])
def test_plate_whose_delay_overflows_is_full_dephasing(tmp_path, plate):
    # the delay's square overflows a float: Eve resolves to dephasing at 0
    # degrees with strength 1, which is the bell_full_eve_hv preset
    cfg = write_config(tmp_path, "b.json",
                       {"kind": "bell", "eve": {"mode": "dephasing"}, "plate": plate})
    assert main(["bell", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    preset = os.path.join(CONFIG_DIR, "bell_full_eve_hv.json")
    assert main(["bell", "--config", preset, "--out", str(tmp_path / "b")]) == 0
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_extreme_finite_values_run_or_are_refused(tmp_path, name):
    # each float of a preset (top level, in its sections, and each bell
    # angle) set in turn to +-1e300: the run succeeds, is refused or aborts,
    # and never raises
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        body = json.load(fh)
    places = [(body, key) for key, value in body.items() if type(value) is float]
    places += [(body[section], key) for section in ("detector", "eve", "plate")
               for key, value in body.get(section, {}).items() if type(value) is float]
    places += [(body["angles"], i) for i in range(len(body.get("angles", [])))]
    assert places
    for run, ((place, key), value) in enumerate(itertools.product(places, (1e300, -1e300))):
        original, place[key] = place[key], value
        cfg = write_config(tmp_path, "c.json", body)
        out = str(tmp_path / f"out{run}")
        assert main([body["kind"], "--config", cfg, "--out", out]) in (0, 1, 2), (key, value)
        place[key] = original


@pytest.mark.parametrize("kind, body", [
    ("tomo", {"seed": 6, "n_per_setting": 4000, "replicas": 20}),
    ("bell", {"angles": [0.0, 45.0, 22.5, 67.5]}),
])
@pytest.mark.parametrize("eve", [
    {"basis_angle": 0.0},
    {"basis_angle": 45.0, "intercept_fraction": 0.5},
    {"basis_policy": "random_per_trial"},
    {"basis_policy": "random_per_trial", "intercept_fraction": 0.3},
])
def test_intercept_resend_is_full_dephasing_for_tomo_and_bell(tmp_path, kind, body, eve):
    # the session model's one Eve: intercept-resend is a strength-1 plate
    trees = []
    for name, mode in (("i", {"mode": "intercept_resend"}),
                       ("d", {"mode": "dephasing", "strength": 1.0})):
        cfg = write_config(tmp_path, f"{name}.json", dict(
            body, kind=kind, source_noise=0.04, eve=dict(eve, **mode)))
        assert main([kind, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        trees.append(read_tree(tmp_path / name))
    assert trees[0] == trees[1]


def test_otp_roundtrip_text(capsys):
    key_hex = "deadbeef0123"  # 48 key bits >= 24 data bits
    assert main(["otp", "encrypt", "--text", "QKD", "--key-hex", key_hex]) == 0
    cipher_hex = capsys.readouterr().out.strip()
    assert main(["otp", "decrypt", "--hex", cipher_hex, "--key-hex", key_hex]) == 0
    plain_hex = capsys.readouterr().out.strip()
    assert np.packbits(otp.hex_to_bits(plain_hex)).tobytes().decode("utf-8") == "QKD"


def test_otp_key_file_with_offset(tmp_path, capsys):
    key_bits = np.random.default_rng(0).integers(0, 2, 40).astype(np.uint8)
    transcript = {"final_key_hex": otp.bits_to_hex(key_bits), "final_key_len": 40}
    path = tmp_path / "transcript.json"
    path.write_text(json.dumps(transcript))
    assert main(["otp", "encrypt", "--text", "a", "--key-file", str(path),
                 "--offset", "8"]) == 0
    cipher_hex = capsys.readouterr().out.strip()
    expected = otp.encrypt(otp.text_to_bits("a"), key_bits[8:])
    assert cipher_hex == otp.bits_to_hex(expected)


def test_session_transcript_is_an_otp_key_file(tmp_path, capsys):
    cfg = os.path.join(CONFIG_DIR, "session_no_eve_ideal.json")
    assert main(["session", "--config", cfg, "--out", str(tmp_path)]) == 0
    key_file = str(tmp_path / "transcript.json")
    capsys.readouterr()
    assert main(["otp", "encrypt", "--text", "QKD", "--key-file", key_file]) == 0
    cipher_hex = capsys.readouterr().out.strip()
    assert main(["otp", "decrypt", "--hex", cipher_hex, "--key-file", key_file]) == 0
    plain_hex = capsys.readouterr().out.strip()
    assert np.packbits(otp.hex_to_bits(plain_hex)).tobytes().decode("utf-8") == "QKD"


def test_config_and_key_file_may_start_with_a_bom(tmp_path, capsys):
    # editors that save "UTF-8 with BOM" put EF BB BF before the JSON
    cfg = write_config(tmp_path, "s.json", session_body())
    bom_cfg = tmp_path / "bom.json"
    bom_cfg.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "s.json").read_bytes())
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["session", "--config", str(bom_cfg), "--out", str(tmp_path / "b")]) == 0
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
    key_file = tmp_path / "a" / "transcript.json"
    bom_key = tmp_path / "bom_key.json"
    bom_key.write_bytes(b"\xef\xbb\xbf" + key_file.read_bytes())
    capsys.readouterr()
    ciphers = []
    for path in (key_file, bom_key):
        assert main(["otp", "encrypt", "--text", "QKD", "--key-file", str(path)]) == 0
        ciphers.append(capsys.readouterr().out)
    assert ciphers[0] == ciphers[1]


def test_otp_key_file_must_hold_a_key(tmp_path, capsys):
    for i, body in enumerate(({"final_key_len": 8}, [1, 2],
                              {"final_key_hex": "ab", "final_key_len": 9},
                              {"final_key_hex": 171, "final_key_len": 8})):
        path = tmp_path / f"key{i}.json"
        path.write_text(json.dumps(body))
        assert main(["otp", "encrypt", "--text", "a", "--key-file", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_otp_negative_offset_rejected(capsys):
    key_hex = "deadbeef0123"
    assert main(["otp", "encrypt", "--text", "a", "--key-hex", key_hex,
                 "--offset", "-8"]) == 1
    assert "offset" in capsys.readouterr().err


def test_otp_short_key_exit_code(capsys):
    assert main(["otp", "encrypt", "--text", "QKD", "--key-hex", "ab"]) == 1
    assert "key too short" in capsys.readouterr().err


def test_usage_errors_exit_1_help_exits_0(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["session"]) == 1  # missing required flags
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_session_random_basis_full_dephasing_qber_range(tmp_path):
    eve = {"mode": "dephasing", "strength": 1.0, "basis_policy": "random_per_trial"}
    cfg = write_config(tmp_path, "s.json",
                       session_body(seed=23, n_intervals=10000, eve=eve))
    code = main(["session", "--config", cfg, "--out", str(tmp_path / "a")])
    assert code == 2  # a full eavesdropper trips the abort threshold
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert 0.20 <= summary["qber_estimate"] <= 0.30


_PRESET_READS = {
    "session": {"kind", "seed", "n_intervals", "source_noise", "detector", "eve", "plate"},
    "tomo": {"kind", "seed", "replicas", "n_per_setting", "source_noise", "eve", "plate"},
    "bell": {"kind", "angles", "source_noise", "eve", "plate"},
}


def test_presets_set_only_keys_their_run_reads():
    # every session and tomo preset draws from its own integer seed; bell
    # draws nothing, and no preset sets a key its run ignores
    names = sorted(os.listdir(CONFIG_DIR))
    assert len(names) >= 4
    for name in names:
        with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
            body = json.load(fh)
        assert body["kind"] in _PRESET_READS
        reads = ({"kind", "seed", "replicas", "counts_file"} if "counts_file" in body
                 else _PRESET_READS[body["kind"]])
        assert set(body) <= reads, name
        assert body["kind"] == "bell" or type(body["seed"]) is int, name
        load_config(os.path.join(CONFIG_DIR, name), body["kind"])
