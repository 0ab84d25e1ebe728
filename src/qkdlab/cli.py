"""Command-line entry point: reproducible experiments from JSON configs.

Every command is a pure function of (config file, seed): outputs carry no
timestamps or machine state, so rerunning a preset yields byte-identical
files.  Exit codes: 0 success, 1 usage/config error, 2 session aborted on a
high error rate.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import otp, qmath
from .detection import DetectorConfig, records_to_csv
from .protocol import (SessionConfig, run_session, transcript_summary,
                       transcript_to_dict)
from .states import (EveConfig, QuartzPlate, TwoQubitState, add_white_noise,
                     bell_phi_plus, eve_scenarios, plate_gamma)
from .tomography import (TOMO_SCHEDULE, CHSH_CANONICAL_ANGLES, chsh, correlator,
                         run_tomography, simulate_counts)

BASIS_LABELS = ("HH", "HV", "VH", "VV")


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _take(section: dict, key: str, types, where: str, required=False, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    value = section[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf  # not finite
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' in {where} has the wrong type")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"key '{key}' in {where} must be a finite number")
    return value


_TYPES = {"float": float, "int": int, "str": str}


def _parse_section(cls, section: dict, where: str, **fixed):
    """Build the dataclass ``cls`` from a config section.

    Each field not given in ``fixed`` is read from the key of the same name,
    typed by the field's annotation; an absent key takes the field's default,
    and a field without one is required.
    """
    kwargs = dict(fixed)
    for f in dataclasses.fields(cls):
        if f.name not in fixed and (f.name in section or f.default is dataclasses.MISSING):
            kwargs[f.name] = _take(section, f.name, _TYPES[f.type], where, required=True)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _parse_nested(raw: dict, key: str, cls):
    """The config's ``key`` section as a ``cls``, or None when it is absent."""
    if key not in raw:
        return None
    section = raw[key]
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{key}' must be a JSON object")
    _check_keys(section, _field_names(cls), key)
    return _parse_section(cls, section, key)


def _resolve_eve(eve: EveConfig, plate: QuartzPlate | None, eve_keys) -> EveConfig:
    """Eve from the eve section, whose keys are ``eve_keys``, and an optional
    plate.  The section may set no key that the run ignores: any key but
    ``mode`` when Eve is absent, ``strength`` under intercept-resend (always
    full dephasing), ``basis_angle`` under ``random_per_trial``, and, as a
    plate pins the dephasing strength and axis, either beside a plate."""
    if plate is None:
        ignored = sorted(set(eve_keys) - {"mode"}) if eve.mode == "absent" else [
            key for key, unread in (("strength", eve.mode == "intercept_resend"),
                                    ("basis_angle", eve.basis_policy == "random_per_trial"))
            if unread and key in eve_keys]
        if ignored:
            raise ConfigError(f"eve.{ignored[0]} has no effect under eve.mode '{eve.mode}' "
                              f"with eve.basis_policy '{eve.basis_policy}'")
        return eve
    if eve.mode != "dephasing":
        raise ConfigError("a quartz plate only makes sense with eve.mode 'dephasing'")
    if eve.basis_policy == "random_per_trial":
        raise ConfigError("a quartz plate fixes the dephasing axis, so it needs "
                          "eve.basis_policy 'fixed'")
    pinned = [f"eve.{key}" for key in ("basis_angle", "strength") if key in eve_keys]
    if pinned:
        raise ConfigError(f"{' and '.join(pinned)} cannot be set beside a quartz plate, "
                          "whose axis and thickness fix them")
    return EveConfig(mode="dephasing", basis_angle=plate.axis_angle_deg,
                     strength=plate_gamma(plate),
                     intercept_fraction=eve.intercept_fraction,
                     basis_policy=eve.basis_policy)


def load_config(path: str, kind: str, seed_override: int | None = None) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    file_kind = raw.get("kind")
    if file_kind != kind:
        raise ConfigError(f"config kind is '{file_kind}', but this command needs '{kind}'")

    common = {"kind", "seed", "source_noise", "eve", "plate"}
    per_kind = {
        "session": common | _field_names(SessionConfig),
        "tomo": common | {"n_per_setting", "replicas", "counts_file"},
        "bell": common | {"angles"},
    }
    _check_keys(raw, per_kind[kind], "config")

    seed = _take(raw, "seed", int, "config", required=seed_override is None)
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    eve = _resolve_eve(_parse_nested(raw, "eve", EveConfig) or EveConfig(),
                       _parse_nested(raw, "plate", QuartzPlate), raw.get("eve", {}))
    out = {
        "kind": kind,
        "seed": seed,
        "source_noise": _take(raw, "source_noise", float, "config",
                              default=SessionConfig.source_noise),
        "eve": eve,
    }
    if kind == "session":
        out["session"] = _parse_section(
            SessionConfig, raw, "config", seed=seed, source_noise=out["source_noise"],
            eve=eve, detector=_parse_nested(raw, "detector", DetectorConfig) or DetectorConfig())
    elif kind == "tomo":
        out["n_per_setting"] = _take(raw, "n_per_setting", float, "config", default=10000.0)
        out["replicas"] = _take(raw, "replicas", int, "config", default=200)
        out["counts_file"] = _take(raw, "counts_file", str, "config", default=None)
    elif kind == "bell":
        angles = _take(raw, "angles", list, "config", default=list(CHSH_CANONICAL_ANGLES))
        if len(angles) != 4 or not all(isinstance(a, (int, float)) and not isinstance(a, bool)
                                       and abs(a) <= sys.float_info.max for a in angles):
            raise ConfigError("angles must be four finite numbers [a, a', b, b']")
        out["angles"] = [float(a) for a in angles]
    return out


def _prepared_state(cfg: dict) -> TwoQubitState:
    """The noisy source state after Eve: the mixture of her scenarios from
    :func:`~qkdlab.states.eve_scenarios`, with the weights a session samples
    them by, for every Eve mode and basis policy."""
    weights, states = eve_scenarios(
        add_white_noise(bell_phi_plus(), cfg["source_noise"]), cfg["eve"])
    return TwoQubitState(sum(w * state.rho for w, state in zip(weights, states)))


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_session(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8", newline="") as fh:
        transcript = run_session(
            cfg["session"], sink=lambda start, trials: records_to_csv(trials, fh, start))
    _dump_json(transcript_to_dict(transcript), os.path.join(out_dir, "transcript.json"))
    summary = transcript_summary(transcript)
    _dump_json(summary, os.path.join(out_dir, "summary.json"))
    print(f"sifted {summary['n_sifted']} bits, agreement "
          f"{summary['sifted_agreement']:.4f}, qber "
          f"{-1.0 if summary['qber_estimate'] is None else summary['qber_estimate']:.4f}, "
          f"final key {summary['final_key_bits']} bits"
          + (f" [aborted: {summary['abort_reason']}]" if summary["aborted"] else ""))
    return 2 if transcript.aborted else 0


def _read_counts_csv(path) -> np.ndarray:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ConfigError(f"cannot read counts file: {exc}") from exc
    if rows and [field.strip() for field in rows[0][:3]] == ["setting_a", "setting_b", "count"]:
        rows = rows[1:]
    table = {}
    for row in rows:
        if len(row) != 3:
            raise ConfigError(f"counts file row has {len(row)} fields, expected 3")
        key = (row[0].strip(), row[1].strip())
        if key in table:
            raise ConfigError(f"counts file repeats the {key[0]}{key[1]} setting")
        try:
            table[key] = float(row[2])
        except ValueError as exc:
            raise ConfigError(f"bad count value {row[2]!r}") from exc
    counts = []
    for a, b in TOMO_SCHEDULE:
        key = (a.value, b.value)
        if key not in table:
            raise ConfigError(f"counts file is missing the {key[0]}{key[1]} setting")
        counts.append(table[key])
    if len(table) != len(TOMO_SCHEDULE):
        raise ConfigError("counts file has settings outside the 16-setting schedule")
    return np.array(counts)


def _write_counts_csv(counts, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["setting_a", "setting_b", "count"])
        for (a, b), c in zip(TOMO_SCHEDULE, counts):
            writer.writerow([a.value, b.value, f"{float(c):.10g}"])


def cmd_tomo(cfg: dict, out_dir: str) -> int:
    if cfg["counts_file"] is not None:
        counts = _read_counts_csv(cfg["counts_file"])
    else:
        rng = np.random.default_rng(cfg["seed"])
        counts = simulate_counts(_prepared_state(cfg), cfg["n_per_setting"], rng)
    run = run_tomography(counts, replicas=cfg["replicas"], seed=cfg["seed"])

    os.makedirs(out_dir, exist_ok=True)
    _write_counts_csv(counts, os.path.join(out_dir, "counts.csv"))
    _dump_json({"basis_order": list(BASIS_LABELS),
                "rho": qmath.mat_to_json(run.rho_hat.rho)},
               os.path.join(out_dir, "density_matrix.json"))
    _dump_json(dataclasses.asdict(run.metrics), os.path.join(out_dir, "metrics.json"))
    print(f"tangle {run.metrics.tangle:.4f} +- {run.metrics.tangle_sigma:.4f}, "
          f"entropy {run.metrics.von_neumann:.4f} +- {run.metrics.von_neumann_sigma:.4f}, "
          f"fidelity {run.metrics.fidelity:.4f}")
    return 0


def cmd_bell(cfg: dict, out_dir: str) -> int:
    state = _prepared_state(cfg)
    a, a_prime, b, b_prime = cfg["angles"]
    table = {
        "E(a,b)": correlator(state, a, b),
        "E(a,b')": correlator(state, a, b_prime),
        "E(a',b)": correlator(state, a_prime, b),
        "E(a',b')": correlator(state, a_prime, b_prime),
    }
    s_value = chsh(state, *cfg["angles"])
    os.makedirs(out_dir, exist_ok=True)
    _dump_json({"angles": cfg["angles"], "correlators": table, "s_value": s_value},
               os.path.join(out_dir, "bell.json"))
    for name, value in table.items():
        print(f"{name} = {value:+.6f}")
    print(f"{s_value:.6f}")
    return 0


def _load_key_bits(args) -> np.ndarray:
    if args.key_hex:
        return otp.hex_to_bits(args.key_hex)
    with open(args.key_file, encoding="utf-8-sig") as fh:
        transcript = json.load(fh)
    if not isinstance(transcript, dict):
        raise ConfigError("key file must be a JSON object")
    key_hex = _take(transcript, "final_key_hex", str, "key file", required=True)
    key_len = _take(transcript, "final_key_len", int, "key file", required=True)
    bits = otp.hex_to_bits(key_hex)
    if not 0 <= key_len <= len(bits):
        raise ConfigError(f"key file final_key_len {key_len} does not fit "
                          f"its {len(bits)}-bit final_key_hex")
    return bits[:key_len]


def cmd_otp(args) -> int:
    if args.offset < 0:
        raise ConfigError("--offset must be >= 0")
    if args.text is not None:
        data = otp.text_to_bits(args.text)
    else:
        data = otp.hex_to_bits(args.hex)
    key = _load_key_bits(args)[args.offset:]
    out = otp.encrypt(data, key) if args.op == "encrypt" else otp.decrypt(data, key)
    print(otp.bits_to_hex(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdlab",
        description="Entanglement-based BB84 simulator: sessions, state "
                    "tomography, Bell tests and one-time-pad messaging.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("session", "run a key-distribution session"),
                       ("tomo", "state tomography (simulated or from a counts file)"),
                       ("bell", "CHSH correlation test of the configured state")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("otp", help="one-time-pad encrypt/decrypt")
    p.add_argument("op", choices=["encrypt", "decrypt"])
    payload = p.add_mutually_exclusive_group(required=True)
    payload.add_argument("--text", help="payload as UTF-8 text")
    payload.add_argument("--hex", help="payload as hex")
    keysrc = p.add_mutually_exclusive_group(required=True)
    keysrc.add_argument("--key-hex", help="key material as hex")
    keysrc.add_argument("--key-file", help="transcript JSON holding final_key_hex")
    p.add_argument("--offset", type=int, default=0,
                   help="skip this many already-consumed key bits")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; 2 is reserved for protocol aborts
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "otp":
            return cmd_otp(args)
        cfg = load_config(args.config, args.command, args.seed)
        handler = {"session": cmd_session, "tomo": cmd_tomo, "bell": cmd_bell}
        return handler[args.command](cfg, args.out)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
