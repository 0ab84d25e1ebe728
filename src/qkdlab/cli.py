"""Command-line entry point, and the package's one file boundary: every read, write and format.

Every command is a pure function of its config file (for ``session`` and
``tomo``, with the seed that ``--seed`` may override; ``bell`` draws nothing):
outputs carry no timestamps or machine state, so rerunning a preset yields
byte-identical files.  Exit codes: 0 success, 1 usage/config error, 2 session aborted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import otp
from .detection import BASES, DetectorConfig, Trials
from .protocol import SessionConfig, SessionTranscript, run_session
from .states import (EveConfig, QuartzPlate, add_white_noise, after_eve, bell_phi_plus,
                     plate_gamma)
from .tomography import (MAX_COUNT, TOMO_SCHEDULE, CHSH_CANONICAL_ANGLES, correlator,
                         run_tomography, simulate_counts)

BASIS_LABELS = ("HH", "HV", "VH", "VV")


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)} "
                          f"(it reads {', '.join(sorted(allowed))})")


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


def _read_input(path: str, what: str, syntax: str):
    """The JSON value, or the nonempty CSV rows, of the file ``path`` as
    ``syntax`` says, read as UTF-8 with an optional byte-order mark.  Any
    failure to read or parse it is a ConfigError that names ``what``."""
    try:
        with open(path, encoding="utf-8-sig", newline="" if syntax == "CSV" else None) as fh:
            return json.load(fh) if syntax == "JSON" else [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError, csv.Error) as exc:
        raise ConfigError(f"{what} is not valid {syntax}: {exc}") from exc


def load_config(path: str, kind: str, seed_override: int | None = None) -> dict:
    raw = _read_input(path, "config", "JSON")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("kind") != kind:
        raise ConfigError(f"config kind is '{raw.get('kind')}', but this command needs '{kind}'")

    # The keys each run reads are the only ones its config, or --seed, may set.
    raw = raw if seed_override is None else dict(raw, seed=seed_override)
    from_counts = kind == "tomo" and "counts_file" in raw
    reads = {"seed", "replicas", "counts_file"} if from_counts else {
        "session": {"seed", "plate"} | _field_names(SessionConfig),
        "tomo": {"seed", "replicas", "n_per_setting", "source_noise", "eve", "plate"},
        "bell": {"angles", "source_noise", "eve", "plate"}}[kind]
    _check_keys(raw, reads | {"kind"}, "config")

    out = {"kind": kind}
    if "seed" in reads:
        out["seed"] = seed = _take(raw, "seed", int, "config", required=True)
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if "eve" in reads:
        out["eve"] = eve = _resolve_eve(
            _parse_nested(raw, "eve", EveConfig) or EveConfig(),
            _parse_nested(raw, "plate", QuartzPlate), raw.get("eve", {}))
        out["source_noise"] = _take(raw, "source_noise", float, "config",
                                    default=SessionConfig.source_noise)
    if kind == "session":
        out["session"] = _parse_section(
            SessionConfig, raw, "config", seed=seed, source_noise=out["source_noise"], eve=eve,
            detector=_parse_nested(raw, "detector", DetectorConfig) or DetectorConfig())
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
    # for tomo and bell: a session's SessionConfig has already checked it
    if not 0.0 <= out.get("source_noise", 0.0) <= 1.0:
        raise ConfigError("config: source_noise must be in [0, 1]")
    return out


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_counts_csv(counts, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["setting_a", "setting_b", "count"])
        for (a, b), c in zip(TOMO_SCHEDULE, counts):
            writer.writerow([a.value, b.value, np.format_float_positional(float(c), trim="-")])


def mat_to_json(m) -> list:
    """Row-major nested lists of [re, im] pairs, as ``density_matrix.json`` holds ``rho``."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


# The columns of records.csv: the fields of Trials, in their order.
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(Trials))

# Field texts of the values 0, 1 and -1 ("none") at index ``value & 3``;
# -1 & 3 is 3, and 2 never occurs.
_BASIS_FIELD = tuple(b.value for b in BASES) + ("", "")
_BIT_FIELD = ("0", "1", "", "")

# A records.csv row at the code that :func:`records_to_csv` packs from its
# five fields: 4**5 = 1024 entries.
_RECORD_TEXT = tuple(",".join(fields) + "\n" for fields in itertools.product(
    *[_BASIS_FIELD if name.endswith("_basis") else _BIT_FIELD for name in CSV_COLUMNS]))

# The rows' ASCII bytes, one 16-byte item each, zero-padded to that width; no
# field text holds a NUL byte, so the zero padding is what a row drops.  The
# longest row is 13 bytes, but numpy's ``take`` copies 16-byte items on a
# fast path, and 13-byte items were no faster.
_RECORD_ROWS = np.array(_RECORD_TEXT, dtype="S16")


def records_to_csv(trials: Trials, fh, start: int = 0) -> None:
    """Write one row per dwell interval to the open text file ``fh``.

    Row ``i`` after the header is interval ``i``; there is no index column.
    ``start`` is the index of the first interval in ``trials``, and the
    header goes before row 0, so a session's tiles written in order make the
    whole file.  Absent bases and bits are empty fields; a kept trial is a
    row with both bits.  The five fields pack two bits each into a 10-bit
    code, and the rows are one ``take`` of 16-byte items from a table of
    every code's row; dropping their zero bytes leaves the rows' text.
    """
    code = np.zeros(len(trials), dtype=np.int16)
    for name in CSV_COLUMNS:
        code <<= 2
        code |= getattr(trials, name) & 3
    if start == 0:
        fh.write(",".join(CSV_COLUMNS) + "\n")
    raw = _RECORD_ROWS.take(code).view(np.uint8)
    fh.write(str(raw[raw != 0], "ascii"))   # decodes the buffer, no bytes copy


def transcript_summary(t: SessionTranscript) -> dict:
    """``summary.json``: agreement, error-rate and key-length figures read
    from the transcript's counts; the agreement of no sifted bits is 0.0."""
    return {
        "n_records": t.n_intervals,
        "n_kept": t.n_kept,
        "n_sifted": t.n_sifted,
        "sifted_agreement": t.n_agree / t.n_sifted if t.n_sifted else 0.0,
        "qber_estimate": t.qber_estimate,
        "aborted": t.aborted,
        "abort_reason": t.abort_reason,
        "leaked_bits": t.leaked_bits,
        "final_key_bits": int(len(t.final_key)),
    }


def transcript_to_dict(t: SessionTranscript) -> dict:
    """``transcript.json``: the final key as lowercase hex plus its bit
    length, the key file that ``qkdlab otp --key-file`` reads."""
    return {
        "final_key_hex": otp.bits_to_hex(t.final_key),
        "final_key_len": int(len(t.final_key)),
    }


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
    rows = _read_input(path, "counts file", "CSV")
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
        if not 0 <= table[key] <= MAX_COUNT:
            raise ConfigError(f"counts file count {row[2]!r} is not in [0, {MAX_COUNT:g}]")
    counts = []
    for a, b in TOMO_SCHEDULE:
        key = (a.value, b.value)
        if key not in table:
            raise ConfigError(f"counts file is missing the {key[0]}{key[1]} setting")
        counts.append(table[key])
    if len(table) != len(TOMO_SCHEDULE):
        raise ConfigError("counts file has settings outside the 16-setting schedule")
    return np.array(counts)


def cmd_tomo(cfg: dict, out_dir: str) -> int:
    if cfg["counts_file"] is not None:
        counts = _read_counts_csv(cfg["counts_file"])
    else:
        rng = np.random.default_rng(cfg["seed"])
        state = after_eve(add_white_noise(bell_phi_plus(), cfg["source_noise"]), cfg["eve"])
        counts = simulate_counts(state, cfg["n_per_setting"], rng)
    rho_hat, metrics = run_tomography(counts, replicas=cfg["replicas"], seed=cfg["seed"])

    os.makedirs(out_dir, exist_ok=True)
    _write_counts_csv(counts, os.path.join(out_dir, "counts.csv"))
    _dump_json({"basis_order": list(BASIS_LABELS),
                "rho": mat_to_json(rho_hat.rho)},
               os.path.join(out_dir, "density_matrix.json"))
    _dump_json(dataclasses.asdict(metrics), os.path.join(out_dir, "metrics.json"))
    print(f"tangle {metrics.tangle:.4f} +- {metrics.tangle_sigma:.4f}, "
          f"entropy {metrics.von_neumann:.4f} +- {metrics.von_neumann_sigma:.4f}, "
          f"fidelity {metrics.fidelity:.4f}")
    return 0


def cmd_bell(cfg: dict, out_dir: str) -> int:
    """Write the correlators E(a,b), E(a,b'), E(a',b), E(a',b') at the
    configured angles [a, a', b, b'] and S, their signed sum (+, -, +, +)."""
    state = after_eve(add_white_noise(bell_phi_plus(), cfg["source_noise"]), cfg["eve"])
    a, a_prime, b, b_prime = cfg["angles"]
    e = [correlator(state, x, y)
         for x, y in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))]
    table = dict(zip(("E(a,b)", "E(a,b')", "E(a',b)", "E(a',b')"), e))
    s_value = e[0] - e[1] + e[2] + e[3]
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
    transcript = _read_input(args.key_file, "key file", "JSON")
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
        if name != "bell":
            p.add_argument("--seed", type=int, help="override the config seed")
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
        cfg = load_config(args.config, args.command, getattr(args, "seed", None))
        handler = {"session": cmd_session, "tomo": cmd_tomo, "bell": cmd_bell}
        return handler[args.command](cfg, args.out)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
