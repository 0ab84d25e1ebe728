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
from .protocol import MAX_INTERVALS, SessionConfig, SessionTranscript, run_session
from .states import EveConfig, QuartzPlate, plate_gamma
from .tomography import (MAX_COUNT, TOMO_SCHEDULE, BellConfig, TomoConfig, correlator,
                         run_tomography, simulate_counts)

BASIS_LABELS = ("HH", "HV", "VH", "VV")


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)} "
                          f"(it reads {', '.join(sorted(allowed))})")


def _take(section: dict, key: str, types, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    value = section[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf  # not finite
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' in {where} has the wrong type")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"key '{key}' in {where} must be a finite number")
    return value


# A field's type by its annotation; JSON has no tuple, so a tuple is read from a list.
_TYPES = {"float": float, "int": int, "str": str, "str | None": str, "tuple[float, ...]": list}


def _parse_section(cls, section: dict, where: str, **fixed):
    """Build the dataclass ``cls`` from a config section.

    Each field not given in ``fixed`` is read from the key of the same name,
    typed by the field's annotation; an absent key takes the field's default,
    and a field without one is required.
    """
    kwargs = dict(fixed)
    for f in dataclasses.fields(cls):
        if f.name not in fixed and (f.name in section or f.default is dataclasses.MISSING):
            kwargs[f.name] = _take(section, f.name, _TYPES[f.type], where)
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
    return dataclasses.replace(eve, basis_angle=plate.axis_angle_deg,
                               strength=plate_gamma(plate))


# Files above these sizes are refused unparsed.  A config needs a few hundred bytes; a
# key file holds at most a MAX_INTERVALS-bit key as hex, plus a config's size for the rest.
_MAX_CONFIG_BYTES = 1 << 20
_MAX_KEY_FILE_BYTES = MAX_INTERVALS // 4 + _MAX_CONFIG_BYTES


def _read_input(path: str, what: str, syntax: str, max_bytes=None, parse_rows=None):
    """The file ``path``, read as UTF-8 with an optional byte-order mark: for
    ``syntax`` "JSON", its value, refused unparsed above ``max_bytes``; for "CSV",
    ``parse_rows`` of its nonempty rows, read one at a time.  Any failure to read
    or parse the file is a ConfigError that names ``what``."""
    try:
        with open(path, encoding="utf-8-sig", newline="" if syntax == "CSV" else None) as fh:
            if syntax == "CSV":
                return parse_rows(row for row in csv.reader(fh) if row)
            size = os.fstat(fh.fileno()).st_size
            # a pipe or device has no size, so its read stops one character past the cap
            text = fh.read(max_bytes + 1) if size <= max_bytes else ""
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigError(f"{what} is not valid CSV: {exc}") from exc
    if max(size, len(text)) > max_bytes:
        raise ConfigError(f"{what} is larger than {max_bytes} bytes")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past Python's digit limit
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


_CONFIGS = {"session": SessionConfig, "tomo": TomoConfig, "bell": BellConfig}


def load_config(path: str, kind: str, seed_override: int | None = None):
    """The config of the ``kind`` command, an instance of its class in ``_CONFIGS``."""
    raw = _read_input(path, "config", "JSON", max_bytes=_MAX_CONFIG_BYTES)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("kind") != kind:
        raise ConfigError(f"config kind is '{raw.get('kind')}', but this command needs '{kind}'")

    # A run reads its class's fields and the plate, which sets Eve, and no other key may
    # be set.  The one exception: a tomo run from a counts file reads only these three.
    raw = raw if seed_override is None else dict(raw, seed=seed_override)
    cls = _CONFIGS[kind]
    fields = _field_names(cls)
    reads = ({"seed", "replicas", "counts_file"} if kind == "tomo" and "counts_file" in raw
             else fields | {"plate"})
    _check_keys(raw, reads | {"kind"}, "config")
    # The beam's sections, parsed and checked here alone, for the classes that have them.
    beam = {"eve": _resolve_eve(_parse_nested(raw, "eve", EveConfig) or EveConfig(),
                                _parse_nested(raw, "plate", QuartzPlate), raw.get("eve", {})),
            "detector": _parse_nested(raw, "detector", DetectorConfig) or DetectorConfig()}
    cfg = _parse_section(cls, raw, "config", **{k: v for k, v in beam.items() if k in fields})
    if "seed" in reads and cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    return cfg


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


def cmd_session(cfg: SessionConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8", newline="") as fh:
        transcript = run_session(
            cfg, sink=lambda start, trials: records_to_csv(trials, fh, start))
    _dump_json(transcript_to_dict(transcript), os.path.join(out_dir, "transcript.json"))
    summary = transcript_summary(transcript)
    _dump_json(summary, os.path.join(out_dir, "summary.json"))
    print(f"sifted {summary['n_sifted']} bits, agreement "
          f"{summary['sifted_agreement']:.4f}, qber "
          f"{-1.0 if summary['qber_estimate'] is None else summary['qber_estimate']:.4f}, "
          f"final key {summary['final_key_bits']} bits"
          + (f" [aborted: {summary['abort_reason']}]" if summary["aborted"] else ""))
    return 2 if transcript.aborted else 0


def _counts_from_rows(rows) -> np.ndarray:
    """The counts in schedule order from a counts file's rows, read until the first
    that is malformed, repeats a setting or comes after the 16th setting."""
    table = {}
    for i, row in enumerate(rows):
        if i == 0 and [field.strip() for field in row[:3]] == ["setting_a", "setting_b", "count"]:
            continue
        if len(row) != 3:
            raise ConfigError(f"counts file row has {len(row)} fields, expected 3")
        key = (row[0].strip(), row[1].strip())
        if key in table:
            raise ConfigError(f"counts file repeats the {key[0]}{key[1]} setting")
        if len(table) == len(TOMO_SCHEDULE):
            raise ConfigError("counts file has settings outside the 16-setting schedule")
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
    return np.array(counts)


def cmd_tomo(cfg: TomoConfig, out_dir: str) -> int:
    if cfg.counts_file is not None:
        counts = _read_input(cfg.counts_file, "counts file", "CSV", parse_rows=_counts_from_rows)
    else:
        rng = np.random.default_rng(cfg.seed)
        counts = simulate_counts(cfg.measured_state(), cfg.n_per_setting, rng)
    rho_hat, metrics = run_tomography(counts, replicas=cfg.replicas, seed=cfg.seed)

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


def cmd_bell(cfg: BellConfig, out_dir: str) -> int:
    """Write the correlators E(a,b), E(a,b'), E(a',b), E(a',b') at the
    configured angles [a, a', b, b'] and S, their signed sum (+, -, +, +)."""
    state = cfg.measured_state()
    a, a_prime, b, b_prime = cfg.angles
    e = [correlator(state, x, y)
         for x, y in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))]
    table = dict(zip(("E(a,b)", "E(a,b')", "E(a',b)", "E(a',b')"), e))
    s_value = e[0] - e[1] + e[2] + e[3]
    os.makedirs(out_dir, exist_ok=True)
    _dump_json({"angles": cfg.angles, "correlators": table, "s_value": s_value},
               os.path.join(out_dir, "bell.json"))
    for name, value in table.items():
        print(f"{name} = {value:+.6f}")
    print(f"{s_value:.6f}")
    return 0


def _load_key_bits(args) -> np.ndarray:
    if args.key_hex:
        return otp.hex_to_bits(args.key_hex)
    transcript = _read_input(args.key_file, "key file", "JSON", max_bytes=_MAX_KEY_FILE_BYTES)
    if not isinstance(transcript, dict):
        raise ConfigError("key file must be a JSON object")
    key_hex = _take(transcript, "final_key_hex", str, "key file")
    key_len = _take(transcript, "final_key_len", int, "key file")
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
