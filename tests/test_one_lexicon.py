"""One lexicon per command: the command line resolves it once and passes it
down.  No ``lex`` parameter in ``sslstm`` has a default, and only the command
line (and the module that defines it) calls ``default_lexicon()``."""

import ast
from pathlib import Path

import sslstm

SRC = Path(sslstm.__file__).resolve().parent


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_lex_parameter_has_a_default():
    seen, defaulted = 0, []
    for name, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            seen += sum(a.arg == "lex" for a in positional + args.kwonlyargs)
            defaulted += [f"{name}:{node.lineno}" for a in with_default if a.arg == "lex"]
    assert defaulted == []
    assert seen >= 15  # not vacuous: the parameter was not renamed away


def test_only_the_command_line_falls_back_to_the_packaged_lexicon():
    callers = set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "default_lexicon":
                    callers.add(name)
    assert callers == {"cli.py", "text_norm.py"}
