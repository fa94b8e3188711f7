"""Tooling guard: no function in the package or the test oracles takes a
parameter it never reads.

A keyword that is accepted and ignored looks like a setting to its callers,
and in a memoised function it splits the cache key for no reason.
"""

import ast
from pathlib import Path

import pytest

import qreading

MODULES = sorted(Path(qreading.__file__).parent.glob("*.py")) + [
    Path(__file__).with_name("oracles.py")]


def unread_parameters(source: str) -> list[str]:
    """``name:line param`` for every function parameter never loaded in its body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}:{node.lineno} {p}" for p in params if p not in read]
    return found


def test_scanner_flags_an_ignored_keyword():
    source = "def f(x, quad_order=None):\n    return x\n"
    assert unread_parameters(source) == ["f:1 quad_order"]
    assert unread_parameters("def g(x):\n    def h():\n        return x\n    return h\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
