"""No dead code: every public top-level function and class of ``sslstm`` is
referenced by the program itself, somewhere in ``src/`` or ``demos/``
besides its own definition, unless the allow-list says why it stays."""

import ast
from pathlib import Path

import sslstm

SRC = Path(sslstm.__file__).resolve().parent
DEMOS = SRC.parent.parent / "demos"

# Kept although only tests call them: each is the reader or the writer of a
# file format whose other half the program uses, and tests use it as the
# reference for that format; or the benchmark harness imports it.
ALLOWED = {
    "read_judge_queue": "reads what write_judge_queue writes; CLI and textfile tests check queues with it",
    "save_embedding_file": "writes what load_embedding_file reads; tests build table files with it",
    "load_baseline": "reads what save_baseline writes; the CLI calls baseline_from_container on a container it parsed once",
    "load_checkpoint": "reads what save_checkpoint writes; the CLI calls model_from_container on a container it parsed once",
    "default_lexicon_sha256": "the benchmark's input generator writes it into the checkpoints it builds",
}


def public_definitions() -> list[tuple[str, str]]:
    """(module file, name) of each public top-level function and class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((path.name, node.name))
    return found


def referenced_names() -> set[str]:
    """Every name the program's code mentions: bare names, attributes and
    imported names.  A definition's own name is not a mention."""
    names = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted(DEMOS.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_the_program_uses_every_public_function_and_class():
    assert sorted(DEMOS.glob("*.py")), f"no demos under {DEMOS}"
    used = referenced_names()
    unused = [f"{module}: {name}" for module, name in public_definitions()
              if name not in used and name not in ALLOWED]
    assert unused == []


def test_the_allow_list_names_only_unused_definitions():
    defined = {name for _, name in public_definitions()}
    used = referenced_names()
    stale = sorted(name for name in ALLOWED if name not in defined or name in used)
    assert stale == []
