"""Command-line front end: reproduction, simulation, and derivation workflows.

Every subcommand accepts ``--seed`` (integer in [0, 2**64), default 0) and
``--format {human,json,csv}``; ``derive-attack`` prints its parameters JSON
whatever ``--format`` says.  ``simulate`` prints the fields of a
``harness.SimulationReport`` and ``detection-curve`` those of each
``harness.CurvePoint``, in every format.  Output is deterministic: the same
argv and seed produce byte-identical stdout.  Exit codes: 0 success, 1
reproduction mismatch (row diff on stderr), 2 invalid input (an argument argparse
rejects, or a ``swapqkd: error: ...`` line on stderr, for instance for a
seed out of range or an ``--emit-params`` path that cannot be written).

The table subcommands are self-checking: they compare the freshly
simulated rows against the embedded expected rows and exit nonzero on any
drift, which turns the published outcome tables into executable
regression tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import __version__, adversary, bell, harness, protocol
from .adversary import ATTACKS, AttackStrategy
from .protocol import PROTOCOLS, TableMismatchError

FORMATS = ("human", "json", "csv")


def _aligned(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _csv(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_table(header: tuple[str, ...], rows: list[tuple[str, ...]], fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(_csv(header, rows))
    elif fmt == "json":
        sys.stdout.write(_json_doc({"columns": list(header), "rows": [list(r) for r in rows]}))
    else:
        sys.stdout.write(_aligned(header, rows))


def _cell(value, float_format: str = ".6f") -> str:
    """One printed cell: a float in ``float_format``, a string as it is, else its JSON."""
    if isinstance(value, float):
        return format(value, float_format)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


def _cmd_validate_convention(args) -> int:
    conv = bell.convention()
    r_s, r_z = bell.convention_residuals(conv)
    payload = {
        "labels": conv.signed_states(),
        "acting_factor": conv.acting_factor,
        "s_rotation_residual": r_s,
        "z_rotation_residual": r_z,
        "satisfying_conventions": len(bell.all_conventions()),
        "swap_xor_permutation": bell.xor_permutation(protocol.derive_swap_table(conv)),
    }
    if args.format == "json":
        sys.stdout.write(_json_doc(payload))
    else:
        rows = [("label " + lab, value) for lab, value in payload["labels"].items()]
        rows += [(key, _cell(value, ".3e")) for key, value in payload.items() if key != "labels"]
        _emit_table(("quantity", "value"), rows, args.format)
    return 0


def _cmd_reproduce_table(args) -> int:
    module, name = args.reproduce  # looked up now, so a replaced function is the one run
    try:
        rows = getattr(module, name)(bell.convention())
    except TableMismatchError as exc:
        sys.stderr.write("\n".join(exc.diff) + "\n")
        return 1
    _emit_table(args.columns, rows, args.format)
    return 0


def _cmd_simulate(args) -> int:
    config = harness.SimulationConfig(
        protocol=args.protocol,
        rounds=args.rounds,
        attack=AttackStrategy(args.attack),
        procedure_policy=args.procedure_prob,
        test_fraction=args.test_fraction,
        master_seed=args.seed,
    )
    report = dataclasses.asdict(harness.run_simulation(config))
    if args.format == "json":
        config_doc = {**dataclasses.asdict(config), "attack": config.attack.kind}
        sys.stdout.write(_json_doc({"config": config_doc, "report": report}))
    elif args.format == "csv":
        keys = tuple(sorted(report))
        _emit_table(keys, [tuple(_cell(report[k]) for k in keys)], "csv")
    else:
        rows = [(k, _cell(report[k])) for k in sorted(report)]
        _emit_table(("statistic", "value"), rows, "human")
    return 0


def _cmd_detection_curve(args) -> int:
    config = harness.CurveConfig(
        protocol=args.protocol,
        attack=AttackStrategy(args.attack),
        procedure_policy=args.procedure_prob,
        master_seed=args.seed,
    )
    n_values = []
    for entry in filter(None, args.n.split(",")):
        try:
            n_values.append(int(entry))
        except ValueError:
            raise ValueError(f"--n takes comma-separated integers, not {entry!r}") from None
    if not n_values:
        raise ValueError(f"--n needs at least one integer, got {args.n!r}")
    points = harness.detection_curve(config, n_values, args.reps)
    if args.format == "json":
        sys.stdout.write(_json_doc([dataclasses.asdict(pt) for pt in points]))
    else:
        columns = tuple(f.name for f in dataclasses.fields(harness.CurvePoint))
        rows = [tuple(map(_cell, dataclasses.astuple(pt))) for pt in points]
        _emit_table(columns, rows, args.format)
    return 0


def _cmd_derive_attack(args) -> int:
    params = adversary.derive_tailored_attack(bell.convention())
    text = params.to_json() + "\n"
    if args.emit_params is not None:
        try:
            with open(args.emit_params, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(
                f"cannot write --emit-params {args.emit_params}: {exc.strerror}"
            ) from exc
    sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapqkd",
        description="Entanglement-swapping key distribution: simulation and analysis.",
    )
    parser.add_argument("--version", action="version", version=f"swapqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, monte_carlo: bool = False) -> argparse.ArgumentParser:
        """A subcommand with the shared options: ``--seed`` and ``--format``, then, for the
        Monte Carlo commands, the protocol and Alice's procedure coin."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
        p.add_argument("--format", choices=FORMATS, default="human")
        if monte_carlo:
            p.add_argument("--protocol", choices=tuple(PROTOCOLS), default="six")
            p.add_argument("--procedure-prob", type=float, default=0.5,
                           help="probability Alice picks procedure (i)")
        return p

    p = command("validate-convention",
                "print the derived Bell labeling and its defining residuals")
    p.set_defaults(func=_cmd_validate_convention)

    p = command("reproduce-table1", "emit the adversary-free outcome table, self-checked")
    p.set_defaults(func=_cmd_reproduce_table, reproduce=(protocol, "reproduce_table1"),
                   columns=protocol.TABLE1_COLUMNS)

    p = command("reproduce-table2", "emit the interception-attack outcome table, self-checked")
    p.set_defaults(func=_cmd_reproduce_table, reproduce=(adversary, "reproduce_table2"),
                   columns=adversary.TABLE2_COLUMNS)

    p = command("simulate", "Monte Carlo protocol run", monte_carlo=True)
    p.add_argument("--attack", choices=tuple(ATTACKS), default="none")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--test-fraction", type=float, default=0.5,
                   help="fraction of rounds whose keys are publicly compared")
    p.set_defaults(func=_cmd_simulate)

    p = command("detection-curve",
                "empirical vs theoretical detection probability per compared pairs",
                monte_carlo=True)
    p.add_argument("--attack", choices=tuple(ATTACKS), default="mixed")
    p.add_argument("--n", default="1,2,4,8,16", help="comma-separated compared-pair counts")
    p.add_argument("--reps", type=int, default=10000, help="experiments per point (>= 100)")
    p.set_defaults(func=_cmd_detection_curve)

    p = command("derive-attack", "search for the procedure-(ii)-matched attack parameters")
    p.add_argument("--emit-params", metavar="PATH", default=None,
                   help="also write the parameters JSON to this file")
    p.set_defaults(func=_cmd_derive_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must be in [0, 2**64), got {args.seed}")
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"swapqkd: error: {exc}\n")
        return 2  # unreachable; parser.exit raises SystemExit


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
