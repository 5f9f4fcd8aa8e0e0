"""The pure-int hot path against the numpy code it replaced.

``flipOneWhereDifferent`` and ``flipKWhereDifferent`` read the set bits of
``d = x ^ y`` from one per-thread memo keyed on the last parent pair, which
holds the ascending positions of d's set bits and flipOne's last output and
drawn index.  The same pair, in either order, reads the positions as they
are; the pair with that output in place of the parent flipOne flipped (a
kept flip) deletes the drawn index; any other pair is built afresh.  flipOne
flips the bit at its drawn rank, flipK the bits at its drawn ranks.  Both
are checked call by call along pair-descent-shaped chains that mix the two
kernels, with kept and rejected flips, after a failed draw and in threads,
and one pair-descent run must build its positions once.  Monotone evaluation sums its
integer weights by popcount over one int slice per weight bit; it is checked
against an exact Python sum over the agreeing positions.  Bounded draws
(``operators._below``, in ``flipOneWhereDifferent``, ``flipOneUniform`` and
chooseConsistent's survivor index) replay numpy's own method for
``rng.integers(m)``, Lemire's multiply-shift rejection on ``next_uint32``,
on the bit generator's C interface.  ``flipKWhereDifferent`` makes numpy's
Floyd draws, then the draws of numpy's shuffle, on ``_below`` at every take:
that is ``rng.choice(c, take, replace=False)`` wherever numpy runs Floyd's
algorithm (c <= 10,000, or take <= c // 50).  Outside that region numpy runs
a tail shuffle, so there the kernel is checked against a Floyd-and-shuffle
reference written here with ``rng.integers``.  The pair-descent coin reads
the top bit of one ``random_raw`` output, which is ``rng.random() < 0.5``:
``next_double`` is ``(u >> 11) * 2**-53``.  Each must reproduce the earlier
numpy code exactly:
the same output word, the same generator state afterwards (the full state
dict, PCG64's buffered half-word included) and bit-identical floats, so that
seeded runs keep their query counts and output bytes.  The earlier code is
kept here verbatim as the oracle; the second value its kernels return is a
draw record, which the comparisons ignore.  The replicas depend on how numpy
draws, so CI also runs ``TestBoundedDraw`` (``_below``),
``TestFlipOneWhereDifferent`` (its kept-flip chains among them),
``TestPairDescentBuilds``, ``TestFlipKWhereDifferent``, ``TestFlipKDraw`` and
``TestPairDescentCoin`` on numpy 2.0, the oldest numpy the package allows.

``bitcore.random_word`` replicates no numpy method: it is ceil(n / 64) raw
64-bit outputs joined little-endian, and it leaves PCG64's buffered half-word
alone.  The earlier ``random_word`` joined ``next_uint32`` outputs, which on
a fresh generator gives the same bits but leaves a half-word buffered after
an odd number of 32-bit chunks.  So ``random_instance`` keeps z and the
monotone weights at every n, and LeadingOnes' sigma, whose permutation reads
that buffer, wherever ceil(n / 32) is even; the earlier join is kept here
verbatim to show it.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arityopt import operators
from arityopt.algorithms import EngineState, _anchor_pair, _pair_descent, run_binary_onemax
from arityopt.bitcore import BitString, Permutation, random_word
from arityopt.operators import (
    FLIP_ONE_UNIFORM,
    FLIP_ONE_WHERE_DIFFERENT,
    _below,
    flip_k_id,
    sample_operator,
)
from arityopt.problems import MonotoneInstance, Oracle, random_instance


def word_unpack(word: int, n: int) -> np.ndarray:
    raw = word.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), bitorder="little", count=n
    ).astype(bool)


def differing_positions(wx: int, wy: int, n: int) -> np.ndarray:
    return np.flatnonzero(word_unpack(wx ^ wy, n))


def _k_flip_one(words, n, params, rng):
    x, y = words
    d = x ^ y
    if d == 0:
        return x, None
    pos = differing_positions(x, y, n)
    p = int(pos[rng.integers(pos.size)])
    return x ^ (1 << p), p


def _k_flip_k(words, n, params, rng):
    x, y = words
    ell = params[0]
    pos = differing_positions(x, y, n)
    take = min(ell, pos.size)
    if take == 0:
        return y, ()
    chosen = pos[rng.choice(pos.size, size=take, replace=False)]
    out = y
    for p in chosen:
        out ^= 1 << int(p)
    return out, tuple(int(p) for p in np.sort(chosen))


def numpy_runs_floyd(c: int, take: int) -> bool:
    """Whether ``rng.choice(c, take, replace=False)`` runs Floyd's algorithm;
    otherwise it shuffles the tail of ``arange(c)``."""
    return c <= 10_000 or take <= c // 50


def floyd_and_shuffle(c: int, take: int, rng) -> list[int]:
    """numpy's Floyd branch of ``choice`` written out on ``rng.integers``:
    Floyd's algorithm fills ``take`` slots, then Fisher-Yates shuffles them."""
    idx, seen = [], set()
    for j in range(c - take, c):
        v = int(rng.integers(j + 1))
        idx.append(j if v in seen else v)
        seen.add(idx[-1])
    for i in range(take - 1, 0, -1):
        j = int(rng.integers(i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _k_flip_k_floyd(words, n, params, rng):
    x, y = words
    pos = differing_positions(x, y, n)
    out = y
    for r in floyd_and_shuffle(pos.size, min(params[0], pos.size), rng):
        out ^= 1 << int(pos[r])
    return out, None


def _k_flip_one_uniform(words, n, params, rng):
    p = int(rng.integers(n))
    return words[0] ^ (1 << p), p


def monotone_reference(inst: MonotoneInstance, word: int) -> int:
    n = inst.n
    agree = ~(word ^ inst.z.word) & ((1 << n) - 1)
    return sum(w for w, bit in zip(inst.weights, word_unpack(agree, n)) if bit)


lengths = st.one_of(st.integers(1, 300), st.sampled_from([4096, 16384]))


@st.composite
def word_pairs(draw):
    """(n, x, y) with x ^ y empty, one bit, an end bit, sparse, dense or random."""
    n = draw(lengths)
    full = (1 << n) - 1
    x = draw(st.integers(0, full))
    positions = st.integers(0, n - 1)
    kind = draw(st.sampled_from(
        ["equal", "single", "bit0", "last", "ends", "sparse", "dense", "random"]))
    if kind == "equal":
        d = 0
    elif kind == "single":
        d = 1 << draw(positions)
    elif kind == "bit0":
        d = 1
    elif kind == "last":
        d = 1 << (n - 1)
    elif kind == "ends":
        d = 1 | 1 << (n - 1)
    elif kind in ("sparse", "dense"):
        d = 0
        for p in draw(st.lists(positions, max_size=6)):
            d |= 1 << p
        if kind == "dense":
            d ^= full
    else:
        d = draw(st.integers(0, full))
    return n, x, x ^ d


# One cycle of a chain of flip-kernel calls, shaped as pair descent makes
# them.  The chain's pair (x, y) is called as it stands ("same") or swapped
# ("swap"), a rejected flip either way.  A kept flip puts the last flipOne
# output on the pair in place of the parent it flipped, and calls it as
# (out, other) ("kept") or (other, out) ("kept_swap").  "second" and
# "second_swap" call that output with the parent that flipOne did flip, which
# is no kept flip.  "remove" and "add" take one bit out of d = x ^ y or add one
# that flipOne did not draw; "unrelated" calls a random pair and "zero" d = 0.
# "other" calls a random word against the other parent of the last flipOne,
# whose draw fails in "fail_other", before a kept flip.  flipK calls ride
# along, on the pair as it stands, beside that other parent and on an
# unrelated pair, and share the memo.
CHAIN_CYCLE = ("same", "kept", "swap", "kept_swap", "kept", "remove", "swap", "same", "kept",
               "add", "second", "flipk", "same", "second_swap", "swap", "kept_swap",
               "flipk_other", "kept", "unrelated", "same", "fail_other", "kept", "flipk",
               "swap", "kept", "flipk_unrelated", "zero", "remove", "swap")
CHAIN_WIDTHS = (1, 63, 64, 65, 4096)
NUMPY_FLIP_KERNELS = {"flipOneWhereDifferent": _k_flip_one, "flipKWhereDifferent": _k_flip_k}


class FailingDraws:
    """A generator whose first draw raises, as ``_below`` reads its bit generator."""

    @property
    def bit_generator(self):
        raise RuntimeError("draw failed")


def flip_chain(n: int, seed: int, call, cycles: int = 4) -> None:
    """Makes the calls of a chain at width n, as ``CHAIN_CYCLE`` lays out:
    ``call(op, (x, y))`` makes one and returns its output, and
    ``call(op, (x, y), fails=True)`` one whose draw fails, on a pair with at
    least two differing bits.  A flipK call takes 0 to 5 bits."""
    r = random.Random(seed)
    full = (1 << n) - 1
    x, y = r.getrandbits(n), r.getrandbits(n)
    last = None  # (flipped parent, other parent, output) of the last flipOne on the pair
    for kind in CHAIN_CYCLE * cycles:
        d = x ^ y
        op, fails = FLIP_ONE_WHERE_DIFFERENT, kind.startswith("fail")
        if kind.startswith(("flipk", "fail")):
            if not fails:
                op = flip_k_id(r.randrange(6))
            kind = kind.partition("_")[2] or "same"
        if last is None and kind.startswith(("kept", "second", "other")):
            kind = "same"
        if (kind == "remove" and not d) or (kind == "add" and d == full):
            kind = "add" if kind == "remove" else "remove"
        if kind in ("remove", "add"):
            x ^= 1 << r.choice([i for i in range(n) if (d >> i & 1) == (kind == "remove")])
            pair = (x, y)
        elif kind == "unrelated":
            pair = (r.getrandbits(n), r.getrandbits(n))
        elif kind == "zero":
            pair = (x, x)
        elif kind.startswith("kept"):
            flipped, other, out = last
            x, y = (out, other) if (flipped, other) == (x, y) else (other, out)
            pair = (out, other) if kind == "kept" else (other, out)
        elif kind.startswith("second"):
            flipped, _, out = last
            pair = (flipped, out) if kind == "second" else (out, flipped)
        elif kind == "other":
            pair = (r.getrandbits(n), last[1])
            fails = fails and (pair[0] ^ pair[1]).bit_count() > 1
        else:
            pair = (x, y) if kind == "same" else (y, x)
        if fails:
            call(op, pair, fails=True)
            continue
        out = call(op, pair)
        if op is FLIP_ONE_WHERE_DIFFERENT and pair in ((x, y), (y, x)):
            last = (*pair, out)


def run_chain(n: int, seed: int) -> list:
    """The kernels' output and the generator's state after each call, or None
    for each call whose draw fails."""
    rng = np.random.default_rng(seed)
    results = []

    def call(op, pair, fails=False):
        if fails:
            with pytest.raises(RuntimeError, match="draw failed"):
                sample_operator(op, pair, n, FailingDraws())
            results.append(None)
            return None
        out = sample_operator(op, pair, n, rng)
        results.append((out, rng.bit_generator.state))
        return out

    flip_chain(n, seed, call)
    return results


class TestFlipOneWhereDifferent:
    """The flip kernels read the set bits of x ^ y from a per-thread memo keyed
    on the last parent pair, which also holds flipOne's last output and draw;
    along a chain of flipOne and flipK calls with kept and rejected flips,
    after a failed draw and in threads, each must give what its numpy kernel
    gives on every call."""

    @settings(max_examples=400, deadline=None)
    @given(word_pairs(), st.integers(0, 2**64 - 1))
    def test_matches_numpy_kernel(self, pair, seed):
        n, x, y = pair
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_operator(FLIP_ONE_WHERE_DIFFERENT, (x, y), n, rng_new)
        want, _ = _k_flip_one((x, y), n, (), rng_old)
        assert got == want
        assert type(got) is int
        # both generators stand at the same position of the stream, with
        # the same buffered half-word
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.integers(2**63) == rng_old.integers(2**63)

    @pytest.mark.parametrize("n", CHAIN_WIDTHS)
    def test_chain_matches_numpy_kernel(self, n, monkeypatch):
        real_below = operators._below
        fail_next = []

        def below(m, rng):
            if fail_next:
                raise fail_next.pop()
            return real_below(m, rng)

        monkeypatch.setattr(operators, "_thread_memos", operators._ThreadMemos())
        monkeypatch.setattr(operators, "_below", below)
        kinds = set()
        for seed in range(3):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            steps = itertools.count()

            def call(op, pair, fails=False):
                step = next(steps)
                if fails:
                    with pytest.raises(RuntimeError, match="draw failed"):
                        sample_operator(op, pair, n, FailingDraws())
                    return None
                draws = pair[0] != pair[1] and (op.params is None or op.params[0] > 0)
                if step % 7 == 4 and draws:
                    # the draw fails once; the call after it must still match
                    fail_next.append(RuntimeError("draw failed"))
                    with pytest.raises(RuntimeError, match="draw failed"):
                        sample_operator(op, pair, n, rng_new)
                    kinds.add(op.name)
                got = sample_operator(op, pair, n, rng_new)
                want, _ = NUMPY_FLIP_KERNELS[op.name](pair, n, op.params, rng_old)
                assert got == want, (seed, step)
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, step)
                return got

            flip_chain(n, seed, call)
        # a draw failed in both kernels
        assert kinds == set(NUMPY_FLIP_KERNELS)

    def test_threads_running_chains_at_once_agree(self):
        cases = [(n, seed) for seed in range(2) for n in (65, 4096)]
        want = [run_chain(n, seed) for n, seed in cases]
        start = threading.Barrier(4)
        answers = [None] * 4

        def chain(i):
            start.wait()
            answers[i] = [run_chain(n, seed) for n, seed in cases]

        threads = [threading.Thread(target=chain, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert answers == [want] * 4


class TestPairDescentBuilds:
    """Pair descent hands the flip kernel either the memo's own pair, in
    either order, or that pair with flipOne's last output in place of the
    parent it flipped; so one ``binary_onemax`` run builds its positions
    once, on its first flipOne call, whose parents x and its complement differ
    in every bit."""

    @pytest.mark.parametrize("kind", ["onemax", "monotone"])
    @pytest.mark.parametrize("n", [64, 4096])
    def test_one_build_per_run(self, monkeypatch, kind, n):
        calls, real = [], operators.differing_positions
        monkeypatch.setattr(operators, "differing_positions", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(operators, "_thread_memos", operators._ThreadMemos())
        for seed in range(2):
            calls.clear()
            # about 2n queries; the budget ends a run that a broken memo derails
            oracle = Oracle(random_instance(kind, n, seed), 4 * n, keep_history=False)
            record = run_binary_onemax(n, oracle, np.random.default_rng([seed, 1]), seed=seed)
            assert record.success and record.queries > n, (seed, record)
            assert calls == [((1 << n) - 1, 0, n)], (seed, len(calls))


class TestFlipOneUniform:
    @settings(max_examples=200, deadline=None)
    @given(lengths, st.data(), st.integers(0, 2**64 - 1))
    def test_matches_numpy_kernel(self, n, data, seed):
        x = data.draw(st.integers(0, (1 << n) - 1))
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_operator(FLIP_ONE_UNIFORM, (x,), n, rng_new)
            want, _ = _k_flip_one_uniform((x,), n, (), rng_old)
            assert got == want
            assert type(got) is int
            assert rng_new.bit_generator.state == rng_old.bit_generator.state


# The bounds of a bounded draw: no draw at 1, powers of two (numpy's
# threshold is 0, so nothing is rejected), 2**31 + r (about half the draws
# are rejected), and the largest bound that still uses Lemire's method.
FIXED_BOUNDS = (1, 2, 3, 7, 256, 2**31, 2**31 + 1, 2**32 - 1)


class TestBoundedDraw:
    def test_matches_integers_with_full_states(self):
        for seed in range(200):
            plan = np.random.default_rng([seed, 7])
            bounds = [*FIXED_BOUNDS, 2**31 + int(plan.integers(2**31))]
            bounds += [int(plan.integers(1, 2**32)) for _ in range(4)]
            bounds += [max(1, int(2 ** plan.uniform(0, 32))) for _ in range(4)]
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for m in bounds * 3:
                got = _below(m, rng_new)
                assert got == int(rng_old.integers(m)), (seed, m)
                assert type(got) is int
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, m)
                # interleave the other draws the program makes: a double and
                # a raw word leave PCG64's buffered half-word as they find it
                step = int(plan.integers(3))
                if step == 1:
                    assert rng_new.random() == rng_old.random()
                elif step == 2:
                    assert rng_new.bit_generator.random_raw() == rng_old.bit_generator.random_raw()

    @pytest.mark.parametrize("m", [0, -1, 2**32, 2**40])
    def test_rejects_bounds_outside_one_to_two_to_the_32(self, m):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            _below(m, rng)
        assert rng.bit_generator.state == before


class TestFlipKWhereDifferent:
    @settings(max_examples=400, deadline=None)
    @given(word_pairs(), st.data(), st.integers(0, 2**64 - 1))
    def test_matches_numpy_kernel(self, pair, data, seed):
        n, x, y = pair
        ell = data.draw(st.integers(0, n + 1))
        c = (x ^ y).bit_count()
        # numpy's own kernel where it runs Floyd, the written-out Floyd elsewhere
        reference = _k_flip_k if numpy_runs_floyd(c, min(ell, c)) else _k_flip_k_floyd
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_operator(flip_k_id(ell), (x, y), n, rng_new)
        want, _ = reference((x, y), n, (ell,), rng_old)
        assert got == want
        assert type(got) is int
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.integers(2**63) == rng_old.integers(2**63)


# Population sizes of the flipK draw: no draw at 1, small ones, the operator's
# n = 60, and both sides of numpy's 10,000 threshold, above which it runs
# Floyd's algorithm only for takes up to c // 50.
FLIP_K_POPULATIONS = (1, 2, 7, 60, 10_000, 10_001, 123_456)


class TestFlipKDraw:
    """The flipK kernel on x = 0, y = 2**c - 1 flips exactly the ranks it
    draws, so the flipped bits are the set ``rng.choice`` returns.  Takes
    0..25 cover every take the algorithms make (k <= 24)."""

    @pytest.mark.parametrize("c", FLIP_K_POPULATIONS)
    def test_flipped_ranks_are_the_choice_set(self, c):
        full = (1 << c) - 1
        for seed in range(120):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for ell in range(26):
                take = min(ell, c)
                got = sample_operator(flip_k_id(ell), (0, full), c, rng_new) ^ full
                want = rng_old.choice(c, size=take, replace=False).tolist() if take else []
                assert got == sum(1 << r for r in want), (seed, c, ell)
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, c, ell)

    @pytest.mark.parametrize(
        "c, take", [(10_001, 201), (16_384, 328), (20_000, 401), (12_000, 12_000)])
    def test_flipped_ranks_past_c_over_50_are_floyds(self, c, take):
        """Where numpy shuffles a tail, the kernel still draws Floyd's ranks."""
        full = (1 << c) - 1
        for seed in range(3):
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_operator(flip_k_id(take), (0, full), c, rng_new) ^ full
            assert got == sum(1 << r for r in floyd_and_shuffle(c, take, rng_old)), (seed, c)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state, (seed, c)

    @pytest.mark.parametrize("c", [10_001, 20_000])
    def test_numpy_leaves_floyd_past_c_over_50(self, c):
        """The one region where the kernel is not ``rng.choice``: past
        c // 50 ranks of more than 10,000, numpy shuffles a tail instead."""
        for take, same in ((c // 50, True), (c // 50 + 1, False)):
            ours, theirs = np.random.default_rng(c), np.random.default_rng(c)
            mine = set(floyd_and_shuffle(c, take, ours))
            numpys = set(theirs.choice(c, size=take, replace=False).tolist())
            same_state = ours.bit_generator.state == theirs.bit_generator.state
            assert (mine == numpys and same_state) is same, (c, take)


class TestRandomWord:
    def test_is_raw_outputs_with_interleaved_draws(self):
        lengths = list(range(1, 301)) + [1024, 4096, 16384]
        assert {32, 33, 64, 65, 256, 257, 16384} <= set(lengths)
        for seed in range(12):
            plan = np.random.default_rng([seed, 11])
            rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in lengths:
                before = rng_new.bit_generator.state
                got = random_word(n, rng_new)
                raw = rng_ref.bit_generator.random_raw((n + 63) // 64)
                want = int.from_bytes(raw.astype("<u8").tobytes(), "little") & ((1 << n) - 1)
                assert got == want, (seed, n)
                assert type(got) is int
                after = rng_new.bit_generator.state
                assert after == rng_ref.bit_generator.state, (seed, n)
                assert (after["has_uint32"], after["uinteger"]) == (
                    before["has_uint32"], before["uinteger"]), (seed, n)
                # a bounded draw may leave PCG64 a buffered half-word, which
                # the next word must leave as it is; a double leaves it too
                step = int(plan.integers(3))
                if step == 1:
                    assert rng_new.random() == rng_ref.random()
                elif step == 2:
                    m = int(plan.integers(1, 2**32))
                    assert _below(m, rng_new) == int(rng_ref.integers(m))


def uint32_word(n: int, rng: np.random.Generator) -> int:
    """The earlier ``random_word``: raw ``next_uint32`` outputs joined
    little-endian at every width."""
    bits = rng.bit_generator.ctypes
    word = 0
    for shift in range(0, n, 32):
        word |= bits.next_uint32(bits.state) << shift
    return word & ((1 << n) - 1)


class TestInstanceDraws:
    def test_only_sigma_at_odd_ceil_n_over_32_moves(self):
        """z and the weights as the earlier join drew them at every n; sigma
        wherever ceil(n / 32) is even, and it does move at some odd one."""
        moved = set()
        for n in list(range(1, 300)) + [1024, 4096, 16384]:
            for seed in range(3):
                rng = np.random.default_rng(seed)
                z = uint32_word(n, rng)
                sigma = Permutation.random(n, rng).mapping
                rng = np.random.default_rng(seed)
                uint32_word(n, rng)
                raw = rng.bit_generator.random_raw((n + 7) // 8).astype("<u8").tobytes()
                weights = tuple(b + 1 for b in raw[:n])
                onemax, leadingones, monotone = (
                    random_instance(c, n, seed) for c in ("onemax", "leadingones", "monotone"))
                assert onemax.z.word == leadingones.z.word == monotone.z.word == z, (n, seed)
                assert monotone.weights == weights, (n, seed)
                if leadingones.sigma.mapping != sigma:
                    moved.add(n)
        assert moved and all(-(-n // 32) % 2 for n in moved)


def random_coin_descent(view, rng, flips, hx, fx, hy, fy):
    """The earlier ``algorithms._pair_descent``, whose coin is ``rng.random()``."""
    kept = 0
    while kept < flips:
        if rng.random() < 0.5:
            h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hx, hy), rng)
            if f2 > fx:
                hx, fx = h2, f2
                kept += 1
        else:
            h2, f2 = view.apply(FLIP_ONE_WHERE_DIFFERENT, (hy, hx), rng)
            if f2 > fy:
                hy, fy = h2, f2
                kept += 1
    return hx, fx


class TestPairDescentCoin:
    def test_top_bit_is_random_below_half(self):
        for seed in range(300):
            plan = np.random.default_rng([seed, 13])
            rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(40):
                coin = not rng_new.bit_generator.random_raw() >> 63
                assert coin == (rng_old.random() < 0.5), seed
                assert rng_new.bit_generator.state == rng_old.bit_generator.state, seed
                # bounded draws between coins, as in pair descent: the coin's
                # 64-bit draw must leave PCG64's buffered half-word as it is
                for _ in range(int(plan.integers(3))):
                    m = int(plan.integers(1, 2**32))
                    assert _below(m, rng_new) == int(rng_old.integers(m))
                    assert rng_new.bit_generator.state == rng_old.bit_generator.state, seed

    @pytest.mark.parametrize("n", [1, 2, 33, 200])
    def test_pair_descent_matches_the_random_coin(self, n):
        """The same queries, in order, and the same generator state after."""
        for seed in range(40):
            inst = random_instance("monotone", n, seed)
            runs = []
            for descent in (_pair_descent, random_coin_descent):
                oracle = Oracle(inst)
                view = EngineState(oracle, 2).view
                rng = np.random.default_rng(seed)
                hx, fx = descent(view, rng, n, *_anchor_pair(view, rng))
                runs.append((hx._word, fx, oracle.history, rng.bit_generator.state))
            assert runs[0] == runs[1], (n, seed)


class TestMonotoneEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_mask_indexing_exactly(self, data):
        n = data.draw(st.integers(1, 300))
        weights = data.draw(st.lists(
            st.integers(1, 2**52), min_size=n, max_size=n))
        z = data.draw(st.integers(0, (1 << n) - 1))
        inst = MonotoneInstance(BitString(n, z), tuple(weights))
        for word in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5)):
            assert inst.evaluate_word(word) == monotone_reference(inst, word)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([200, 1024, 4096]), st.integers(0, 2**32 - 1))
    def test_matches_on_random_instances(self, n, seed):
        inst = random_instance("monotone", n, seed)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            word = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            assert inst.evaluate_word(word) == monotone_reference(inst, word)
        assert inst.evaluate_word(inst.z.word) == monotone_reference(inst, inst.z.word)
        assert inst.evaluate_word(~inst.z.word & ((1 << n) - 1)) == 0
