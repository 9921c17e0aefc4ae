"""Every golden record matches its rerun: a CLI command's exit code, stdout and stderr, and an
exact record's lines of text.

The records live under ``tests/golden/``, one file per pin set, and
``tests/regen_golden.py`` rewrites them.  A record and its rerun are compared
as lists of lines, so a failure names the first line that moved.
"""

from collections import Counter
from functools import cache

import pytest

from regen_golden import EXACT_DIR, EXACT_SETS, dumps, pin_sets, record
from swapqkd import cli
from swapqkd.adversary import ATTACKS

RECORDS = [(name, rec) for name, doc in pin_sets().items() for rec in doc["records"]]
EXACT = [(name, rec) for name, doc in pin_sets(EXACT_DIR).items() for rec in doc["records"]]
built = cache(lambda name: EXACT_SETS[name]())  # each exact set, built once


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


@pytest.mark.parametrize(
    "name,expected", EXACT, ids=[f"{name}:{rec['name']}" for name, rec in EXACT])
def test_exact_record_matches_its_rebuild(name, expected):
    assert built(name).get(expected["name"]) == expected["lines"]


def test_exact_sets_hold_every_record_they_build():
    # Each builder has its file, and each file every record its builder makes, in order.
    stored = pin_sets(EXACT_DIR)
    assert list(stored) == sorted(EXACT_SETS)
    for name, doc in stored.items():
        assert [rec["name"] for rec in doc["records"]] == list(built(name))
    # 12 round models under each of 64 conventions, and four search results of 16 each.
    models = built("round_models")
    assert (len(models) - 1, len(models["sha256 per convention"])) == (12, 64)
    (search,) = built("search").values()
    assert list(Counter(search).values()) == [16] * 4
