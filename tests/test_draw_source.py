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

Each raw entry point is named only where the package reads it:
``random_raw`` only in ``bitcore.random_word`` (every uniform word) and in
``algorithms._pair_descent`` (its coin), and the C interface (``ctypes``,
``next_uint32``) only in ``operators._below`` (every bounded draw).  So a
second sampler of either kind fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import arityopt
from arityopt import algorithms, bitcore, harness, operators, problems

GENERATOR_METHODS = {"random", "integers", "choice", "bytes", "shuffle", "permutation"}
# (qualified name of the enclosing function, method) pairs allowed to name it
ALLOWED = {("Permutation.random", "permutation")}


RAW_NAMES = {"random_raw", "ctypes", "next_uint32"}
# (module, enclosing function, name) triples allowed to name a raw entry point
RAW_ALLOWED = {
    ("bitcore", "random_word", "random_raw"),
    ("algorithms", "_pair_descent", "random_raw"),
    ("operators", "_below", "ctypes"),
    ("operators", "_below", "next_uint32"),
}
PACKAGE = sorted(Path(arityopt.__file__).parent.glob("*.py"))


def raw_stream_names(source: str, module: str) -> list[str]:
    """Every name, attribute or import in ``RAW_NAMES`` outside
    ``RAW_ALLOWED``, as 'scope, line: name'."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            name = (child.attr if isinstance(child, ast.Attribute) else child.id
                    if isinstance(child, ast.Name) else child.name
                    if isinstance(child, ast.alias) else None)
            if name in RAW_NAMES and (module, scope, name) not in RAW_ALLOWED:
                found.append(f"{scope or '<module>'}, line {child.lineno}: {name}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_raw_stream_read_in_one_place_each(path):
    assert raw_stream_names(path.read_text(), path.stem) == []


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

    @pytest.mark.parametrize("module, source, flagged", [
        # the second uniform-word sampler operators kept beside random_word
        ("operators", "def _rand_word(n, rng):\n    return rng.bit_generator.random_raw()\n",
         ["_rand_word, line 2: random_raw"]),
        # random_instance reading the weights' bytes itself
        ("problems", "def random_instance(rng):\n    raw = rng.bit_generator.random_raw(3)\n",
         ["random_instance, line 2: random_raw"]),
        # random_word as a next_uint32 join
        ("bitcore", "def random_word(n, rng):\n    bits = rng.bit_generator.ctypes\n"
         "    return bits.next_uint32(bits.state)\n",
         ["random_word, line 2: ctypes", "random_word, line 3: next_uint32"]),
        ("algorithms", "from x import next_uint32\n", ["<module>, line 1: next_uint32"]),
        ("operators", "class C:\n    def _below(self, rng):\n        return rng.bit_generator.ctypes\n",
         ["C._below, line 3: ctypes"]),
    ])
    def test_flags_a_raw_draw_out_of_place(self, module, source, flagged):
        assert raw_stream_names(source, module) == flagged

    def test_allows_the_raw_draws_in_place(self):
        assert raw_stream_names(
            "def random_word(n, rng):\n    return rng.bit_generator.random_raw()\n", "bitcore") == []
        assert raw_stream_names(
            "def _below(m, rng):\n    bits = rng.bit_generator.ctypes\n"
            "    return bits.next_uint32(bits.state)\n", "operators") == []
