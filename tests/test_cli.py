import csv
import json
import os

import numpy as np
import pytest

from qkdlab import otp
from qkdlab.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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
    assert set(tree_a) == {"records.csv", "sifted.csv", "transcript.json", "summary.json"}
    assert tree_a == tree_b


def test_session_output_files_agree(tmp_path):
    eve = {"mode": "intercept_resend", "basis_policy": "random_per_trial",
           "intercept_fraction": 0.3}
    body = session_body(n_intervals=3000, eve=eve, abort_threshold=0.3,
                        detector={"dwell": 0.1, "pair_rate": 10.0, "dark_rate": 1.0})
    cfg = write_config(tmp_path, "s.json", body)
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) in (0, 2)
    out = tmp_path / "a"
    with open(out / "records.csv", newline="") as fh:
        records = list(csv.DictReader(fh))
    with open(out / "sifted.csv", newline="") as fh:
        sifted = list(csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text())
    transcript = json.loads((out / "transcript.json").read_text())

    expected = [{"trial": r["trial_index"], "alice": r["alice_bit"], "bob": r["bob_bit"],
                 "agree": str(int(r["alice_bit"] == r["bob_bit"]))}
                for r in records if r["kept"] == "1" and r["alice_basis"] == r["bob_basis"]]
    assert sifted == expected
    assert summary["n_records"] == len(records) == 3000
    assert summary["n_kept"] == sum(r["kept"] == "1" for r in records)
    assert summary["n_sifted"] == len(sifted) > 0
    assert set(transcript) == {"qber_estimate", "aborted", "leaked_bits",
                               "final_key_hex", "final_key_len"}


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
    transcript = json.loads((tmp_path / "a" / "transcript.json").read_text())
    assert transcript["aborted"] is True
    assert transcript["final_key_hex"] == ""


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", session_body(qber_sampel_fraction=0.2))
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_wrong_kind_rejected(tmp_path):
    cfg = write_config(tmp_path, "s.json", session_body(kind="tomo"))
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1


def test_missing_seed_rejected(tmp_path):
    body = session_body()
    del body["seed"]
    cfg = write_config(tmp_path, "s.json", body)
    assert main(["session", "--config", cfg, "--out", str(tmp_path / "a")]) == 1


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
    bars = (tmp_path / "a" / "bars.csv").read_text().splitlines()
    assert len(bars) == 17  # header + 16 labeled entries
    assert bars[0] == "row_label,col_label,real_part"


def test_tomo_counts_file_roundtrip(tmp_path):
    body = {"kind": "tomo", "seed": 8, "source_noise": 0.04,
            "n_per_setting": 5000, "replicas": 25,
            "eve": {"mode": "dephasing", "basis_angle": 0.0, "strength": 1.0}}
    cfg = write_config(tmp_path, "t.json", body)
    main(["tomo", "--config", cfg, "--out", str(tmp_path / "a")])
    body2 = dict(body, counts_file=str(tmp_path / "a" / "counts.csv"))
    cfg2 = write_config(tmp_path, "t2.json", body2)
    main(["tomo", "--config", cfg2, "--out", str(tmp_path / "b")])
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert a["density_matrix.json"] == b["density_matrix.json"]
    assert a["metrics.json"] == b["metrics.json"]


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
    assert "missing" in capsys.readouterr().err


def test_bell_prints_canonical_violation(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json",
                       {"kind": "bell", "seed": 2, "source_noise": 0.0,
                        "angles": [0.0, 45.0, 22.5, 67.5], "eve": {"mode": "absent"}})
    assert main(["bell", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "2.828427"
    payload = json.loads((tmp_path / "a" / "bell.json").read_text())
    assert payload["s_value"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_bell_rejects_intercept_mode(tmp_path):
    cfg = write_config(tmp_path, "b.json",
                       {"kind": "bell", "seed": 2,
                        "eve": {"mode": "intercept_resend"}})
    assert main(["bell", "--config", cfg, "--out", str(tmp_path / "a")]) == 1


def test_otp_roundtrip_text(capsys):
    key_hex = "deadbeef0123"  # 48 key bits >= 24 data bits
    assert main(["otp", "encrypt", "--text", "QKD", "--key-hex", key_hex]) == 0
    cipher_hex = capsys.readouterr().out.strip()
    assert main(["otp", "decrypt", "--hex", cipher_hex, "--key-hex", key_hex]) == 0
    plain_hex = capsys.readouterr().out.strip()
    assert otp.bits_to_text(otp.hex_to_bits(plain_hex)) == "QKD"


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


def test_presets_parse_and_have_mandatory_seeds():
    names = sorted(os.listdir(CONFIG_DIR))
    assert len(names) >= 4
    for name in names:
        with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
            body = json.load(fh)
        assert isinstance(body["seed"], int)
        assert body["kind"] in ("session", "tomo", "bell")
