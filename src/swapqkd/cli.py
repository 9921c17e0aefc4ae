"""Command-line front end: reproduction, simulation, and derivation workflows.

Every subcommand accepts ``--seed`` (integer in [0, 2**64), default 0) and
``--format {human,json,csv}``.  Output is deterministic: the same argv and
seed produce byte-identical stdout.  Exit codes: 0 success, 1 reproduction
mismatch (row diff on stderr), 2 invalid input (an argument argparse
rejects, or a ``swapqkd: error: ...`` line on stderr, for instance for a
seed out of range or an ``--emit-params`` path that cannot be written).

The table subcommands are self-checking: they compare the freshly
simulated rows against the embedded expected rows and exit nonzero on any
drift, which turns the published outcome tables into executable
regression tests.
"""

from __future__ import annotations

import argparse
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


def _cmd_validate_convention(args) -> int:
    conv = bell.convention()
    r_s, r_z = bell.convention_residuals(conv)
    n_satisfying = len(bell.all_conventions())
    xor_perm = bell.derive_swap_table(conv).xor_permutation()
    rows = [("label " + lab, desc.split(" = ")[1]) for lab, desc in
            zip(bell.LABELS, conv.describe())]
    rows += [
        ("acting_factor", conv.acting_factor),
        ("s_rotation_residual", f"{r_s:.3e}"),
        ("z_rotation_residual", f"{r_z:.3e}"),
        ("satisfying_conventions", str(n_satisfying)),
        ("swap_xor_permutation", json.dumps(xor_perm, sort_keys=True)),
    ]
    if args.format == "json":
        payload = {
            "labels": {lab: desc.split(" = ")[1] for lab, desc in
                       zip(bell.LABELS, conv.describe())},
            "acting_factor": conv.acting_factor,
            "s_rotation_residual": r_s,
            "z_rotation_residual": r_z,
            "satisfying_conventions": n_satisfying,
            "swap_xor_permutation": xor_perm,
        }
        sys.stdout.write(_json_doc(payload))
    else:
        _emit_table(("quantity", "value"), rows, args.format)
    return 0


def _cmd_reproduce_table1(args) -> int:
    try:
        rows = protocol.reproduce_table1(bell.convention())
    except TableMismatchError as exc:
        sys.stderr.write("\n".join(exc.diff) + "\n")
        return 1
    _emit_table(protocol.TABLE1_COLUMNS, rows, args.format)
    return 0


def _cmd_reproduce_table2(args) -> int:
    try:
        rows = adversary.reproduce_table2(bell.convention())
    except TableMismatchError as exc:
        sys.stderr.write("\n".join(exc.diff) + "\n")
        return 1
    _emit_table(adversary.TABLE2_COLUMNS, rows, args.format)
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
    report = harness.run_simulation(config)
    payload = report.to_json_dict()
    if args.format == "json":
        sys.stdout.write(_json_doc({"config": _config_dict(config), "report": payload}))
    elif args.format == "csv":
        keys = sorted(payload)
        rows = [tuple(_fmt_value(payload[k]) for k in keys)]
        _emit_table(tuple(keys), rows, "csv")
    else:
        rows = [(k, _fmt_value(payload[k])) for k in sorted(payload)]
        _emit_table(("statistic", "value"), rows, "human")
    return 0


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _config_dict(config: harness.SimulationConfig) -> dict:
    return {
        "protocol": config.protocol,
        "rounds": config.rounds,
        "attack": config.attack.kind,
        "procedure_policy": config.procedure_policy,
        "test_fraction": config.test_fraction,
        "master_seed": config.master_seed,
    }


def _cmd_detection_curve(args) -> int:
    config = harness.CurveConfig(
        protocol=args.protocol,
        attack=AttackStrategy(args.attack),
        procedure_policy=args.procedure_prob,
        master_seed=args.seed,
    )
    n_values = [int(x) for x in args.n.split(",") if x != ""]
    points = harness.detection_curve(config, n_values, args.reps)
    if args.format == "json":
        payload = [
            {
                "n": pt.n,
                "empirical": pt.empirical,
                "theoretical": pt.theoretical,
                "ci_low": pt.ci_low,
                "ci_high": pt.ci_high,
            }
            for pt in points
        ]
        sys.stdout.write(_json_doc(payload))
    else:
        rows = [
            (str(pt.n), f"{pt.empirical:.6f}", f"{pt.theoretical:.6f}",
             f"{pt.ci_low:.6f}", f"{pt.ci_high:.6f}")
            for pt in points
        ]
        _emit_table(harness.CURVE_COLUMNS, rows, args.format)
    return 0


def _cmd_derive_attack(args) -> int:
    params = adversary.derive_tailored_attack(bell.convention())
    text = params.to_json() + "\n"
    if args.emit_params:
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
    common.add_argument("--format", choices=FORMATS, default="human")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate-convention", parents=[common],
        help="print the derived Bell labeling and its defining residuals",
    )
    p.set_defaults(func=_cmd_validate_convention)

    p = sub.add_parser(
        "reproduce-table1", parents=[common],
        help="emit the adversary-free outcome table, self-checked",
    )
    p.set_defaults(func=_cmd_reproduce_table1)

    p = sub.add_parser(
        "reproduce-table2", parents=[common],
        help="emit the interception-attack outcome table, self-checked",
    )
    p.set_defaults(func=_cmd_reproduce_table2)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo protocol run")
    p.add_argument("--protocol", choices=tuple(PROTOCOLS), default="six")
    p.add_argument("--attack", choices=tuple(ATTACKS), default="none")
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--test-fraction", type=float, default=0.5,
                   help="fraction of rounds whose keys are publicly compared")
    p.add_argument("--procedure-prob", type=float, default=0.5,
                   help="probability Alice picks procedure (i)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "detection-curve", parents=[common],
        help="empirical vs theoretical detection probability per compared pairs",
    )
    p.add_argument("--protocol", choices=tuple(PROTOCOLS), default="six")
    p.add_argument("--attack", choices=tuple(ATTACKS), default="mixed")
    p.add_argument("--n", default="1,2,4,8,16", help="comma-separated compared-pair counts")
    p.add_argument("--reps", type=int, default=10000, help="experiments per point (>= 100)")
    p.add_argument("--procedure-prob", type=float, default=0.5)
    p.set_defaults(func=_cmd_detection_curve)

    p = sub.add_parser(
        "derive-attack", parents=[common],
        help="search for the procedure-(ii)-matched attack parameters",
    )
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
