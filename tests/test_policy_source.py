"""The black-box model, checked on the source of the policies.

A policy sees the instance only through its ``PolicyView``: it applies
operators and reads n.  The view's bound method still reaches the engine
(``view.apply.__self__._query.__self__._instance.z`` is the hidden z), and
a handle's slots hold its word and its engine, so the policies' source is
what keeps them honest.  Every ``policy_*`` function
in ``algorithms.py``, and every helper that takes a view, may use its view
only as ``view.apply(...)`` or ``view.n``, or pass it on to another such
function.  None of them reads an attribute whose name starts with ``_`` or
names ``getattr``, ``vars``, ``globals`` or ``type``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from arityopt import algorithms

FORBIDDEN_NAMES = {"getattr", "vars", "globals", "type"}


def policy_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Top-level ``policy_*`` functions and every top-level function with a
    ``view`` parameter (the policy helpers), by name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
            if node.name.startswith("policy_") or "view" in params:
                out[node.name] = node
    return out


def violations(source: str) -> list[str]:
    """Every use of a view, or of an attribute or name, that the model rules out."""
    functions = policy_functions(ast.parse(source))
    found = []
    for name, fn in functions.items():
        parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        if "view" not in [a.arg for a in fn.args.args]:
            found.append(f"{name}: takes no view")
        for node in ast.walk(fn):
            where = f"{name}, line {node.lineno}" if hasattr(node, "lineno") else name
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                found.append(f"{where}: reads attribute {node.attr}")
            if isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
                found.append(f"{where}: names {node.id}")
            if isinstance(node, ast.Name) and node.id == "view" and not _allowed(node, parents, functions):
                found.append(f"{where}: uses its view other than as view.apply(...), view.n or a helper's argument")
    return found


def _allowed(node: ast.Name, parents: dict, functions: dict) -> bool:
    parent = parents.get(node)
    if not isinstance(node.ctx, ast.Load):
        return False
    if isinstance(parent, ast.Attribute) and parent.attr == "n":
        return True
    if isinstance(parent, ast.Attribute) and parent.attr == "apply":
        call = parents.get(parent)
        return isinstance(call, ast.Call) and call.func is parent
    # passed on, as a plain positional argument, to a policy or helper
    return (isinstance(parent, ast.Call) and node in parent.args
            and isinstance(parent.func, ast.Name) and parent.func.id in functions)


SOURCE = Path(algorithms.__file__).read_text()


def test_every_policy_is_checked():
    names = set(policy_functions(ast.parse(SOURCE)))
    assert {"policy_binary_onemax", "policy_star_ary_onemax", "policy_kary_onemax",
            "policy_binary_leadingones", "policy_rls"} <= names
    assert {"_anchor_pair", "_pair_descent", "_subset_policy"} <= names


def test_policies_use_the_view_only_through_apply_and_n():
    assert violations(SOURCE) == []


class _Swap(ast.NodeTransformer):
    """Put ``new`` (a node, or a list of statements) where ``old`` stands."""

    def __init__(self, old, new):
        self.old, self.new = old, new

    def visit(self, node):
        return self.new if node is self.old else self.generic_visit(node)


def _first(fn, test):
    """The first node of ``fn``, in ``ast.walk`` order, that passes ``test``."""
    node = next((node for node in ast.walk(fn) if test(node)), None)
    assert node is not None, f"no planting site in {fn.name}"
    return node


def _view(attr):
    """A site: the first ``view.<attr>`` in the function."""
    return lambda fn: _first(fn, lambda node: isinstance(node, ast.Attribute) and node.attr == attr
                             and isinstance(node.value, ast.Name) and node.value.id == "view")


def plant(function: str, site, replacement: str) -> str:
    """The source with ``replacement`` planted at ``site`` of ``function``:
    an expression in place of the site's expression, or statements after the
    site's statement."""
    tree = ast.parse(SOURCE)
    old = site(policy_functions(tree)[function])
    if isinstance(old, ast.stmt):
        new = [old, *ast.parse(replacement).body]
    else:
        new = ast.parse(replacement, mode="eval").body
    return ast.unparse(_Swap(old, new).visit(tree))


@pytest.mark.parametrize("function, site, replacement, message", [
    ("policy_rls", _view("apply"), "view.apply.__self__.apply", "reads attribute __self__"),
    ("policy_star_ary_onemax", _view("n"), "view._x", "reads attribute _x"),
    ("policy_star_ary_onemax", _view("n"), "getattr(view, 'n')", "names getattr"),
    ("_pair_descent", lambda fn: fn.body[0], "engine = view", "uses its view other than"),
    ("policy_kary_onemax", _view("n"), "len(vars(view))", "names vars"),
    ("policy_rls", lambda fn: _first(fn, lambda node: isinstance(node, ast.Compare)).left,
     "h2._word", "reads attribute _word"),
], ids=["apply-self", "private-attribute", "getattr", "alias", "vars", "handle-word"])
def test_a_planted_violation_is_found(function, site, replacement, message):
    found = violations(plant(function, site, replacement))
    assert any(message in f for f in found), found
