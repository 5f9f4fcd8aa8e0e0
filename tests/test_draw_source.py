"""Seeded draws come from the raw stream, checked on the source.

NEP 19 keeps numpy's bit-generator streams and ``SeedSequence`` fixed across
releases, but gives ``Generator`` methods no such promise.  So the run path
draws from the raw stream only: ``bit_generator.random_raw`` and the C
interface's ``next_uint32``.  The one ``Generator`` method it keeps is
``permutation``, inside ``Permutation.random`` (LeadingOnes' sigma), whose
replica would cost far more than the call.  The modules a run goes through
may name none of ``random``, ``integers``, ``choice``, ``bytes`` or
``shuffle`` as an attribute of anything, called or not, and ``permutation``
only there.  Two receivers are not generators: ``np.random`` is numpy's
module, and ``Permutation.random`` is the class's own method.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from arityopt import algorithms, bitcore, harness, operators, problems

GENERATOR_METHODS = {"random", "integers", "choice", "bytes", "shuffle", "permutation"}
# (qualified name of the enclosing function, method) pairs allowed to name it
ALLOWED = {("Permutation.random", "permutation")}


def generator_methods(source: str) -> list[str]:
    """Every ``<expr>.m`` with m a ``Generator`` method, as 'scope, line: m',
    bar ``np.random``, ``Permutation.random`` and ``ALLOWED``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr in GENERATOR_METHODS:
                receiver = child.value
                other = isinstance(receiver, ast.Name) and (receiver.id, child.attr) in {
                    ("np", "random"), ("numpy", "random"), ("Permutation", "random")}
                if not other and (scope, child.attr) not in ALLOWED:
                    found.append(f"{scope or '<module>'}, line {child.lineno}: {child.attr}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("module", [algorithms, operators, bitcore, problems, harness],
                         ids=lambda m: m.__name__)
def test_run_path_draws_from_the_raw_stream(module):
    assert generator_methods(Path(module.__file__).read_text()) == []


class TestChecker:
    """The check itself, on the draws the run path used to make."""

    @pytest.mark.parametrize("line, method", [
        ("if rng.random() < 0.5: pass", "random"),
        ("ranks = rng.choice(c, size=take, replace=False).tolist()", "choice"),
        ("w = int.from_bytes(rng.bytes((n + 7) // 8), 'little')", "bytes"),
        ("p = int(self.rng.integers(n))", "integers"),
        ("rng.shuffle(xs)", "shuffle"),
        ("sigma = rng.permutation(n)", "permutation"),
        ("draw = np.random.default_rng(1).random", "random"),
        ("u = np.random.random()", "random"),
    ])
    def test_flags_a_generator_method(self, line, method):
        assert generator_methods(line) == [f"<module>, line 1: {method}"]

    def test_allows_permutation_in_permutation_random_only(self):
        source = (
            "class Permutation:\n"
            "    def random(cls, n, rng):\n"
            "        return rng.permutation(n)\n"
            "    def other(self, rng):\n"
            "        return rng.permutation(3)\n"
            "sigma = Permutation.random(4, rng)\n"
        )
        assert generator_methods(source) == ["Permutation.other, line 5: permutation"]

    def test_allows_raw_draws(self):
        source = (
            "u = rng.bit_generator.random_raw()\n"
            "bits = rng.bit_generator.ctypes\n"
            "v = bits.next_uint32(bits.state)\n"
            "ss = np.random.SeedSequence(1).spawn(2)\n"
            "b = raw.tobytes()\n"
        )
        assert generator_methods(source) == []
