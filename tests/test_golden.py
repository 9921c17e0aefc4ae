"""Every pinned CLI command gives the exit code, stdout and stderr of its record.

The records live under ``tests/golden/``, one file per pin set, and
``tests/regen_golden.py`` rewrites them.  A record and the rerun are compared
as the lines of their file text, so a failure names the first line that moved.
"""

import pytest

from regen_golden import dumps, pin_sets, record
from swapqkd import cli
from swapqkd.adversary import ATTACKS

RECORDS = [(name, rec) for name, doc in pin_sets().items() for rec in doc["records"]]


@pytest.mark.parametrize(
    "expected", [rec for _, rec in RECORDS],
    ids=[f"{name}:{' '.join(rec['argv'])}" for name, rec in RECORDS],
)
def test_cli_output_matches_its_record(expected):
    assert dumps(record(expected["argv"])).splitlines() == dumps(expected).splitlines()


def test_records_cover_every_subcommand_format_and_attack():
    # Each subcommand in each format, and both Monte Carlo commands for each
    # protocol of each attack kind, among the records that exit 0.
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions if action.dest == "command")
    want = {(command, fmt) for command in commands for fmt in cli.FORMATS}
    want |= {(command, kind, proto) for command in ("simulate", "detection-curve")
             for kind, (protocols, _) in ATTACKS.items() for proto in protocols}
    seen = set()
    for _, rec in RECORDS:
        if rec["exit"] == 0:
            args = parser.parse_args(rec["argv"])
            seen |= {(args.command, args.format),
                     (args.command, getattr(args, "attack", None), getattr(args, "protocol", None))}
    assert want - seen == set()
