"""Command-line front end.

Every subcommand is an entry of `harness.EXPERIMENTS`.  It reads its options
from flags, falling back to `key=value` lines of the file given by --config
(flags win); a config key that names no option of the command is an error.
Results print as readable summaries and can be written as CSV or JSON
records with --out.  The exit code is 0 exactly when every produced record
passes.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness

FORMATS = ("csv", "json")  # record formats of harness.emit


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    return str(v).strip().lower() in ("1", "true", "yes", "on")


def _param(v):
    """Option text as a param: an int where it is one."""
    try:
        return int(v)
    except ValueError:
        return v


def _load_config(path: str, command: str, known) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from None
    out = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{ln}: unknown key {key!r} for {command}")
        out[key] = val
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every registry command; built once, since the registry
    is fixed and parsing does not change the parser."""
    parser = argparse.ArgumentParser(
        prog="smallbox",
        description="Exact counting experiments in small boxes over prime fields")
    parser.add_argument("--out", help="write result records to this path")
    parser.add_argument("--format", choices=FORMATS,
                        help="record format for --out (default csv)")
    parser.add_argument("--seed", help="64-bit seed for randomized suites "
                        f"(default {harness.DEFAULT_SEED})")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, exp in harness.EXPERIMENTS.items():
        sp = sub.add_parser(exp.command)
        sp.set_defaults(kind=kind)
        for name in exp.required_options + exp.optional:
            sp.add_argument(f"--{name}")
        for name in exp.flags:
            sp.add_argument(f"--{name}", action="store_const", const=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = {}

    def opt(name):
        v = getattr(args, name, None)
        return cfg.get(name) if v is None else v

    exp = harness.EXPERIMENTS[args.kind]
    names = exp.required_options + exp.optional
    try:  # bad input: one line on stderr, exit code 2
        if args.config:
            cfg.update(_load_config(args.config, exp.command,
                                    ("out", "format", "seed", *names, *exp.flags)))
        fmt = opt("format") or "csv"
        if fmt not in FORMATS:  # checked before the run, not after its summary
            raise ValueError(f"format {fmt!r} is not one of {', '.join(FORMATS)}")
        for name in exp.required_options:
            if opt(name) is None:
                raise ValueError(f"missing --{name} (or config key {name})")
        params = {name: _param(opt(name)) for name in names if opt(name) is not None}
        params.update({name: True for name in exp.flags if _bool(opt(name))})
        if exp.from_cli is not None:
            params = exp.from_cli(params)
        seed = opt("seed")
        spec = harness.ExperimentSpec(
            args.kind, params, harness.DEFAULT_SEED if seed is None else int(seed))
        records, summary = harness.execute(spec)
    except ValueError as exc:
        parser.error(str(exc))
    for line in summary():
        print(line)
    out = opt("out")
    if out:
        try:
            harness.emit(records, fmt, out)
        except OSError as exc:  # a missing directory, no permission, ...
            parser.error(str(exc))
        print(f"wrote {len(records)} records to {out}")
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
