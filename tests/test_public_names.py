"""No dead code: every public top-level function and class of ``sslstm`` is
referenced by the program itself besides its own definition, and every
parameter default and every dataclass or NamedTuple field is set by some
call in it, unless an allow-list says why it stays.

The program is ``src/``, ``demos/`` and the benchmark harness under
``perfbench/``, which imports the library.  Tests are not callers."""

import ast
from functools import cache
from pathlib import Path

import sslstm

SRC = Path(sslstm.__file__).resolve().parent
ROOT = SRC.parent.parent
DEMOS = ROOT / "demos"
PERFBENCH = ROOT / "perfbench"

# Kept although only tests call them: each is the reader or the writer of a
# file format whose other half the program uses, and tests use it as the
# reference for that format.
ALLOWED = {
    "read_judge_queue": "reads what write_judge_queue writes; CLI and textfile tests check queues with it",
    "save_embedding_file": "writes what load_embedding_file reads; tests build table files with it",
}

# Parameters ("function.parameter") and fields ("Class.field") kept although
# no call in the program sets them.
ALLOWED_UNSET = {
    "load_checkpoint.semantic_table": "the benchmark loads a checkpoint from its path alone; the CLI loads every model file through load_model",
    "load_checkpoint.sentiment_table": "the benchmark loads a checkpoint from its path alone; the CLI loads every model file through load_model",
}


@cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def library() -> list[ast.Module]:
    return [parsed(path) for path in sorted(SRC.glob("*.py"))]


def program_paths() -> list[Path]:
    return [path for folder in (SRC, DEMOS, PERFBENCH) for path in sorted(folder.glob("*.py"))]


def program() -> list[ast.Module]:
    return [parsed(path) for path in program_paths()]


def public_definitions() -> list[tuple[str, str]]:
    """(module file, name) of each public top-level function and class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in parsed(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((path.name, node.name))
    return found


def referenced_names() -> set[str]:
    """Every name the program's code mentions: bare names, attributes and
    imported names.  A definition's own name is not a mention."""
    names = set()
    for tree in program():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def _name(node) -> str | None:
    """The name a ``Name`` or ``Attribute`` node ends in; None for others."""
    return getattr(node, "id", getattr(node, "attr", None))


def _decorator_names(node) -> set[str]:
    return {_name(dec.func if isinstance(dec, ast.Call) else dec) for dec in node.decorator_list}


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and _name(value.func) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)
    )


def _fields(cls: ast.ClassDef) -> list[str] | None:
    """The ``__init__`` fields of a dataclass or NamedTuple, in order; None
    for any other class."""
    if "dataclass" not in _decorator_names(cls) and "NamedTuple" not in {_name(b) for b in cls.bases}:
        return None
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not _init_false(stmt.value)
    ]


def _function_slots(fn: ast.FunctionDef, bound: int):
    """(positional parameters after the ``bound`` leading ones, parameters
    that have a default)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional[bound:], defaulted


def callables(trees) -> list[tuple[str, str, list[str], list[str]]]:
    """(call name, label, positional slots, slots that must be set) of every
    function, method and dataclass or NamedTuple in ``trees``.  A method's
    ``self`` or ``cls`` is bound by the call; a class is called by its name,
    which reaches its ``__init__`` or its fields."""
    found = []
    for tree in trees:
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        owner = {id(member): cls.name for cls in classes for member in cls.body}
        for cls in classes:
            fields = _fields(cls)
            if fields is not None:
                found.append((cls.name, cls.name, fields, fields))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            bound = int(id(node) in owner and "staticmethod" not in _decorator_names(node))
            positional, defaulted = _function_slots(node, bound)
            if node.name == "__init__":
                cls = owner[id(node)]
                found.append((cls, f"{cls}.__init__", positional, defaulted))
            elif not node.name.startswith("__"):
                found.append((node.name, node.name, positional, defaulted))
    return found


def calls(trees) -> dict[str, list[tuple[int, bool, set[str], bool]]]:
    """Per called name, every call in ``trees`` as (positional arguments
    before any ``*args``, has ``*args``, keyword names, has ``**kwargs``).
    ``cls(...)`` inside a class counts as a call of that class."""
    found: dict[str, list] = {}
    for tree in trees:
        owner = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for inner in ast.walk(cls):
                owner[id(inner)] = cls.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            if name == "cls" and id(node) in owner:
                name = owner[id(node)]
            starred = [isinstance(a, ast.Starred) for a in node.args]
            n_positional = starred.index(True) if any(starred) else len(node.args)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            double_star = any(k.arg is None for k in node.keywords)
            found.setdefault(name, []).append((n_positional, any(starred), keywords, double_star))
    return found


def unset_slots(definitions, callers) -> list[str]:
    """``name.slot`` of every defaulted parameter and every field defined in
    ``definitions`` that no call in ``callers`` sets, by position or by
    keyword."""
    program_calls = calls(callers)
    unset = []
    for call_name, label, positional, must_set in callables(definitions):
        for slot in must_set:
            index = positional.index(slot) if slot in positional else None
            if not any(
                slot in keywords or double_star
                or (index is not None and (index < n_positional or starred))
                for n_positional, starred, keywords, double_star in program_calls.get(call_name, [])
            ):
                unset.append(f"{label}.{slot}")
    return sorted(set(unset))


def test_the_program_files_are_there():
    for folder in (DEMOS, PERFBENCH):
        assert sorted(folder.glob("*.py")), f"no program files under {folder}"


def test_the_program_uses_every_public_function_and_class():
    used = referenced_names()
    unused = [f"{module}: {name}" for module, name in public_definitions()
              if name not in used and name not in ALLOWED]
    assert unused == []


def test_the_allow_list_names_only_unused_definitions():
    defined = {name for _, name in public_definitions()}
    used = referenced_names()
    stale = sorted(name for name in ALLOWED if name not in defined or name in used)
    assert stale == []


def test_the_program_sets_every_default_and_field():
    unset = unset_slots(library(), program())
    assert [slot for slot in unset if slot not in ALLOWED_UNSET] == []


def test_the_unset_allow_list_names_only_unset_slots():
    assert sorted(set(ALLOWED_UNSET) - set(unset_slots(library(), program()))) == []


SAMPLE_LIBRARY = """
from dataclasses import dataclass, field

def f(a, b=1, *, c=2, d=3): ...
def g(a, b=1): ...
def h(a, b=1): ...

@dataclass
class Point:
    x: float
    y: float = 0.0
    label: str = field(init=False, default="")

    @classmethod
    def origin(cls):
        return cls(0.0)

class Box:
    def __init__(self, w, h=1): ...
    def scale(self, k=2): ...
"""

SAMPLE_CALLERS = """
f(0, 1)
f(0, c=5)
g(*xs)
h(0, **options)
Box(3).scale(4)
"""


def test_the_scan_finds_the_defaults_and_fields_no_call_sets():
    definitions = ast.parse(SAMPLE_LIBRARY)
    callers = [definitions, ast.parse(SAMPLE_CALLERS)]
    assert unset_slots([definitions], callers) == ["Box.__init__.h", "Point.y", "f.d"]


def _callers(function: str) -> set[str]:
    """The library files besides ``container.py`` that call ``function``."""
    return {
        path.name for path in SRC.glob("*.py") if path.name != "container.py"
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Call) and _name(node.func) == function
    }


def _imports_container(path: Path) -> bool:
    nodes = list(ast.walk(parsed(path)))
    modules = [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    assert modules, f"{path.name} imports nothing"
    return any(m and m.rpartition(".")[2] == "container" for m in modules)


def test_only_float_matrix_calls_loadtxt():
    callers = [
        f"{path.name}:{getattr(top, 'name', top.lineno)}"
        for path in program_paths() for top in parsed(path).body
        if any(isinstance(node, ast.Call) and _name(node.func) == "loadtxt" for node in ast.walk(top))
    ]
    assert callers == ["textfile.py:float_matrix"]


def test_the_table_parser_is_one_pass_and_one_parse():
    parse = next(top for top in parsed(SRC / "embeddings.py").body
                 if getattr(top, "name", None) == "_parse_table")
    nodes = list(ast.walk(parse))[1:]
    assert [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.Lambda))] == []
    assert [_name(node.func) for node in nodes if isinstance(node, ast.Call)].count("float_matrix") == 1


def test_only_training_reads_model_files():
    assert _callers("read_container") == {"training.py"}


def test_only_training_writes_model_files():
    assert _callers("write_container") == {"training.py"}
    assert not _imports_container(SRC / "baselines.py")


def test_the_command_line_leaves_model_files_to_the_library():
    nodes = list(ast.walk(parsed(SRC / "cli.py")))
    assert not _imports_container(SRC / "cli.py")
    assert "meta" not in {_name(node) for node in nodes}
    strings = [node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not [text for text in strings if "lexicon_sha256" in text]


def _surface_reads(path: Path) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.Attribute) and node.attr == "surface"
    ]


def test_token_is_built_only_by_normalize_utterance():
    outside = []
    for path in program_paths():
        for top in parsed(path).body:
            if isinstance(top, ast.FunctionDef) and top.name == "normalize_utterance":
                continue
            outside += [f"{path.name}:{node.lineno}" for node in ast.walk(top) if _name(node) == "Token"]
    assert outside == []


def test_the_library_and_demos_read_no_token_surface():
    paths = [path for folder in (SRC, DEMOS) for path in sorted(folder.glob("*.py"))]
    assert [read for path in paths for read in _surface_reads(path)] == []


def test_the_benchmark_generator_still_reads_token_surface():
    # The only reason text_norm.Token exists.
    assert _surface_reads(PERFBENCH / "gen.py"), (
        "perfbench/gen.py no longer reads .surface: delete the Token subclass "
        "and have normalize_utterance return plain str"
    )


def test_the_command_line_opens_and_writes_no_file_itself():
    # Its results go through textfile's writers, which check that they read back.
    writes = [
        f"cli.py:{node.lineno}: {_name(node.func)}"
        for node in ast.walk(parsed(SRC / "cli.py"))
        if isinstance(node, ast.Call)
        and (_name(node.func) in {"open", "_open_write"}
             or isinstance(node.func, ast.Attribute) and node.func.attr in {"write", "writelines"})
    ]
    assert writes == []
