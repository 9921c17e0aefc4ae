"""Rewrite the golden records under ``tests/golden/`` from the current code.

Each file there is one pin set: a ``note`` on how its outputs were first
captured, and its ``records``.  A CLI record, in ``tests/golden/*.json``, is an
``argv`` with the ``exit`` code, ``stdout`` and ``stderr`` that
``swapqkd.cli.main`` gives it.  A stream is stored as its lines, each keeping
its line break, so joining them gives back the exact text.  An exact record, in
``tests/golden/exact/*.json``, is a ``name`` and the ``lines`` of text that
:data:`EXACT_SETS` builds for it off the exact layer.  Those lines hold only
``str`` and ``int`` values and ``float.hex`` strings, never a numpy repr.  Either
way a moved number is a one-line diff.

This script reruns every stored argv in order, rebuilds every exact set, and
rewrites the files; it takes no options, and ``git diff tests/golden/`` shows
what moved.  A new exact set starts as a file holding its note and no records.
Run it where ``swapqkd`` imports, for instance from the repository root::

    PYTHONPATH=src python tests/regen_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from swapqkd import bell, cli, harness
from swapqkd.adversary import (
    ATTACKS,
    AttackStrategy,
    attack_detection_probability,
    derive_tailored_attack,
    eve_information_probability,
)
from swapqkd.protocol import GateStep, MeasureStep, Procedure, build_plan, protocol_driver

GOLDEN_DIR = Path(__file__).parent / "golden"
EXACT_DIR = GOLDEN_DIR / "exact"
POLICIES = (0.0, 0.3, 0.5, 1.0)  # the procedure policies each folded tree is built at


def record(argv: list[str]) -> dict:
    """The record of ``cli.main(argv)`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def dumps(doc) -> str:
    """A record or a pin set as its file text."""
    return json.dumps(doc, indent=2) + "\n"


def pin_sets(directory: Path = GOLDEN_DIR) -> dict[str, dict]:
    """Each pin set in ``directory``, by file stem."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.json"))}


# --- exact records ---------------------------------------------------------------


def attacks(conv) -> dict[str, tuple]:
    """Each distinct attack of an :data:`ATTACKS` mixture, on each protocol its kind applies
    to, as ``(protocol, attack)`` by title: the protocol and the first kind that draws it, with
    its index in that kind's mixture when the mixture holds several."""
    titles = {}
    for kind, (protocols, mixture) in ATTACKS.items():
        for name in protocols:
            for i, (_weight, build) in enumerate(mixture):
                suffix = f"[{i}]" if len(mixture) > 1 else ""
                titles.setdefault((name, build(conv)), f"{name} {kind}{suffix}")
    return {title: key for key, title in titles.items()}


def _step(step) -> str:
    if isinstance(step, MeasureStep):
        return f"measure {step.name} {step.pair[0]},{step.pair[1]}"
    if isinstance(step, GateStep):
        return f"gate {step.gate} {step.qubit}"
    return f"gate {','.join(step.gates)} {step.qubit} on {step.on}"


def round_models(conv) -> dict[str, list[str]]:
    """Each distinct attack's round model under each procedure, by title: its plan's pairs and
    steps, Eve's posterior, and a line per leaf with its float.hex mass, its outcomes, Bob's
    inferred key and its two facts, which must agree with that key and the posterior."""
    models = {}
    for title, (name, attack) in attacks(conv).items():
        driver = protocol_driver(conv, name)
        for procedure in Procedure:
            model = driver.round_model(procedure, attack)
            plan = build_plan(driver.spec, procedure, attack)
            posterior = ["posterior"]
            for observation, keys in model.posterior.items():
                assert keys, (title, observation)  # Eve never infers no key
                seen = observation if isinstance(observation, str) else ",".join(observation)
                posterior.append(f"{seen}:{'|'.join(keys)}")
            lines = [f"pairs {' '.join(f'{a},{b}' for a, b in plan.pairs)}",
                     *map(_step, plan.steps), " ".join(posterior)]
            for leaf in model.leaves:
                out, inferred = leaf.outcomes, driver.infer(procedure, leaf.outcomes)
                informed = (attack is not None
                            and model.posterior[driver.spec.eve_observation(out)] == (out["key"],))
                assert (leaf.detected, leaf.informed) == (inferred != out["key"], informed), (
                    title, procedure, out)
                outcomes = " ".join(f"{measured}={label}" for measured, label in out.items())
                lines.append(f"{float.hex(leaf.mass)} {outcomes} inferred={inferred} "
                             f"detected={leaf.detected} informed={leaf.informed}")
            models[f"{title} {procedure.printed}"] = lines
    return models


def round_model_records() -> dict[str, list[str]]:
    """The frozen convention's round models, then one SHA-256 per convention over the same
    text, titles included, in :func:`bell.all_conventions` order."""
    records = round_models(bell.convention())
    digests = []
    for conv in bell.all_conventions():
        text = "\n".join(line for title, lines in round_models(conv).items()
                         for line in (title, *lines))
        name = " ".join(conv.signed_states().values())
        digests.append(f"{hashlib.sha256(text.encode()).hexdigest()} {name} {conv.acting_factor}")
    return records | {"sha256 per convention": digests}


def canonical_form(tree) -> list[str]:
    """The rows a walk from the root can reach, in pre-order and numbered in that order: a
    drawing row as ``draw``, its thresholds as float.hex and each slot's row number, the gap
    slot included; a row that ends a walk as ``end``, its levels and its leaf's two facts."""
    (thresholds, children), leaves, levels = tree.rows, tree.leaves, tree.levels
    number, lines = {}, []

    def visit(row):
        if row not in number:
            number[row] = n = len(lines)
            lines.append(None)
            if leaves[row] is None:
                finite = [t for t in thresholds[row] if t != math.inf]
                slots = [visit(child) for child in children[row][:len(finite) + 1]]
                lines[n] = f"draw {','.join(map(float.hex, finite))} {','.join(map(str, slots))}"
            else:
                lines[n] = f"end {levels[row]} {leaves[row].detected} {leaves[row].informed}"
        return number[row]

    visit(0)
    return lines


def folded_tree_records() -> dict[str, list[str]]:
    """The folded round tree of each :data:`ATTACKS` kind on each of its protocols, at each
    of :data:`POLICIES`, as its :func:`canonical_form`."""
    return {f"{name} {kind} q{policy}": canonical_form(
                harness._folded_tree(name, AttackStrategy(kind), policy)[0])
            for kind, (protocols, _mixture) in ATTACKS.items()
            for name in protocols for policy in POLICIES}


def search_records() -> dict[str, list[str]]:
    """The tailored-attack search's parameters under each convention, in
    :func:`bell.all_conventions` order, one sorted-key JSON line each."""
    return {"derive_tailored_attack per convention": [
        json.dumps(derive_tailored_attack(conv).to_json_dict(), sort_keys=True)
        for conv in bell.all_conventions()]}


def exact_read_records() -> dict[str, list[str]]:
    """Both exact reads of each distinct attack under each procedure, frozen convention."""
    conv, lines = bell.convention(), []
    for title, (name, attack) in attacks(conv).items():
        if attack is None:
            continue
        for procedure in Procedure:
            reads = (attack_detection_probability(conv, name, procedure, attack),
                     eve_information_probability(conv, name, procedure, attack))
            lines.append(f"{title} {procedure.printed} {' '.join(map(float.hex, reads))}")
    return {"detection and information": lines}


# Exact pin set -> its records' builder, each record's lines by name.
EXACT_SETS = {
    "round_models": round_model_records,
    "folded_trees": folded_tree_records,
    "search": search_records,
    "exact_reads": exact_read_records,
}


def main() -> None:
    for name, doc in pin_sets().items():
        doc["records"] = [record(rec["argv"]) for rec in doc["records"]]
        (GOLDEN_DIR / f"{name}.json").write_text(dumps(doc), encoding="utf-8")
    for name, doc in pin_sets(EXACT_DIR).items():
        doc["records"] = [{"name": title, "lines": lines}
                          for title, lines in EXACT_SETS[name]().items()]
        (EXACT_DIR / f"{name}.json").write_text(dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
