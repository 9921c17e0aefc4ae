"""Every function in ``src/swapqkd`` is reached by a command or the benchmark's API.

A fresh interpreter imports the package, then, under ``sys.setprofile``, runs
every subcommand at small sizes (each ``--format``, ``simulate`` for each
attack kind on each of its protocols, ``detection-curve`` on both protocols,
and one invalid input that exits 2) and the calls ``benchmarks/child.py``
makes outside the CLI.  It records the first line of every package function
it enters.  The functions it never enters must be exactly :data:`UNREACHED`,
so a function that only tests call cannot stay in ``src/`` unnoticed.

Run as a script, this file prints what the traced pass entered.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import swapqkd

SRC = Path(swapqkd.__file__).resolve().parent

# (module file, qualified name) of every function the pass may not reach.
UNREACHED = {
    ("bell.py", "derive_convention"),  # regenerates FROZEN_CONVENTION
    ("protocol.py", "_row_diff"),  # a table mismatch's row diff
    ("protocol.py", "TableMismatchError.__init__"),
    ("qstate.py", "RandomSource.__repr__"),
    # Run only while the package is imported, before the pass starts.
    ("qstate.py", "_hash_steps"),
    ("protocol.py", "ProtocolSpec.__post_init__"),
}


def _cli_argvs(formats, attacks):
    argvs = []
    for fmt in formats:
        for command in ("validate-convention", "reproduce-table1", "reproduce-table2",
                        "derive-attack"):
            argvs.append([command, "--format", fmt])
        argvs.append(["simulate", "--rounds", "20", "--format", fmt])
        argvs.append(["detection-curve", "--n", "0,1", "--reps", "100", "--format", fmt])
    for kind, (protocols, _constructors) in attacks.items():
        for name in protocols:
            argvs.append(["simulate", "--protocol", name, "--attack", kind, "--rounds", "20"])
    for name, kind in (("six", "mixed"), ("four", "four-swap")):
        argvs.append(["detection-curve", "--protocol", name, "--attack", kind,
                      "--n", "1,2", "--reps", "100"])
    return argvs


def _traced_pass():
    """Exit codes of the CLI runs, and (file, name, first line) of every function entered."""
    from swapqkd import adversary, bell, cli, harness, protocol, qstate  # noqa: F401
    from swapqkd.protocol import Procedure

    entered = set()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(SRC)):
            entered.add((Path(code.co_filename).name, code.co_name, code.co_firstlineno))

    argvs = _cli_argvs(cli.FORMATS, adversary.ATTACKS) + [["simulate", "--seed", "-1"]]
    codes = []
    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
        conv = bell.convention()
        attacks = [("six", adversary.ZlgAttack(conv)), ("six", adversary.TailoredAttack(conv))]
        attacks += [("four", adversary.FourSwapAttack(conv, guess)) for guess in Procedure]
        for name, attack in attacks:
            for procedure in Procedure:
                adversary.attack_detection_probability(conv, name, procedure, attack)
                adversary.eve_information_probability(conv, name, procedure, attack)
        adversary.FROZEN_TAILORED_PARAMS.to_json_dict()
    finally:
        sys.setprofile(None)
    return codes, sorted(entered)


def _defined_functions():
    """(file, qualified name) -> the lines a code object of the function may start on.

    A decorated function's code starts at its first decorator or at ``def``,
    depending on the Python version, so both are accepted.
    """
    found = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {child.lineno} | {d.lineno for d in child.decorator_list[:1]}
                found[file, f"{prefix}{child.name}"] = (child.name, lines)
                visit(child, file, f"{prefix}{child.name}.<locals>.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    return found


def test_only_the_allowlisted_functions_go_unreached():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                         timeout=300, check=True)
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * (len(result["codes"]) - 1) + [2]
    entered = {tuple(site) for site in result["entered"]}
    defined = _defined_functions()
    assert len(defined) > 100
    unreached = {
        key for key, (name, lines) in defined.items()
        if not any((key[0], name, line) in entered for line in lines)
    }
    assert unreached == UNREACHED


if __name__ == "__main__":
    codes, entered = _traced_pass()
    print(json.dumps({"codes": codes, "entered": entered}))
