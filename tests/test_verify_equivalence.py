"""Tests for expression equivalence checking."""

import itertools
from functools import reduce

from hypothesis import given, settings, strategies as st

from repro.symir import BinOp, Const, Ite, Sym, UnOp, binop, free_symbols, simplify, unop
from repro.symir.rowcompile import pair_evaluator
from repro.verify.equivalence import (
    BOUNDARY_VALUES,
    PREFIX_ROWS,
    RANDOM_SAMPLES,
    _assignment_rows,
    _first_difference,
    _sample_seed,
    exprs_equal,
    find_counterexample,
    sampler_stats,
)
from tests.test_symir_rowcompile import exprs

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestExprsEqual:
    def test_syntactic_equality(self):
        a = binop("add", Sym("x"), Sym("y"))
        b = binop("add", Sym("y"), Sym("x"))  # canonical ordering
        assert exprs_equal(a, b)

    def test_algebraic_equality(self):
        # x - y == x + (-y) after simplification paths diverge structurally.
        lhs = BinOp("sub", Sym("x"), Sym("y"))
        rhs = BinOp("add", Sym("x"), UnOp("neg", Sym("y")))
        assert exprs_equal(lhs, rhs)

    def test_demorgan(self):
        lhs = unop("not", binop("and", Sym("x"), Sym("y")))
        rhs = binop("or", unop("not", Sym("x")), unop("not", Sym("y")))
        assert exprs_equal(lhs, rhs)

    def test_inequality_detected(self):
        assert not exprs_equal(
            BinOp("add", Sym("x"), Sym("y")), BinOp("sub", Sym("x"), Sym("y"))
        )

    def test_width_mismatch(self):
        assert not exprs_equal(Const(1, 32), Const(1, 1))

    def test_near_miss_boundary(self):
        # x and x+1 differ everywhere; x and x|1 differ only on even x.
        assert not exprs_equal(Sym("x"), binop("or", Sym("x"), Const(1)))

    def test_subtle_difference_carry(self):
        # (x >> 31) vs slt(x, 0): actually equal — sanity that we accept it.
        lhs = BinOp("lshr", Sym("x"), Const(31))
        rhs = BinOp("slt", Sym("x"), Const(0))
        # widths differ (1 vs 32): not equal by width rule.
        assert not exprs_equal(lhs, rhs)

    @settings(max_examples=50, deadline=None)
    @given(a=U32)
    def test_constant_reflexivity(self, a):
        assert exprs_equal(Const(a), Const(a))

    @settings(max_examples=50, deadline=None)
    @given(a=U32, b=U32)
    def test_distinct_constants(self, a, b):
        assert exprs_equal(Const(a), Const(b)) == (a == b)


    def test_sample_seed_is_pinned(self):
        """The sampling seed is a fixed function of the pair's reprs, the
        same in every process (string ``hash`` is randomized per process)."""
        lhs = simplify(BinOp("mul", Sym("x"), Sym("y")))
        rhs = simplify(BinOp("shl", Sym("x"), Sym("y")))
        assert (repr(lhs), repr(rhs)) == ("(mul x:32 y:32)", "(shl x:32 y:32)")
        assert _sample_seed(lhs, rhs, 0) == 0xFDEEB079
        assert _sample_seed(lhs, rhs, 5) == 0xFDEEB079 ^ 5


class TestCounterexample:
    def test_found_for_unequal(self):
        lhs = BinOp("add", Sym("x"), Const(1))
        rhs = Sym("x")
        env = find_counterexample(lhs, rhs)
        assert env is not None

    def test_none_for_equal(self):
        lhs = binop("xor", Sym("x"), Sym("x"))
        assert find_counterexample(lhs, Const(0)) is None


def _full_scan(lhs, rhs, seed):
    """Reference: the first differing row of one compiled scan over the
    whole assignment stream, with no interpreted prefix."""
    symbols = list(dict.fromkeys(free_symbols(lhs) + free_symbols(rhs)))
    names = tuple(s.name for s in symbols)
    widths = {s.name: s.width for s in symbols}
    masks = [(1 << widths[n]) - 1 for n in names]
    index = pair_evaluator(lhs, rhs, names)(_assignment_rows(names, masks, seed))
    if index < 0:
        return None
    return dict(zip(names, list(_assignment_rows(names, masks, seed))[index]))


def _only_at(values):
    """1-bit condition true exactly where each symbol holds its value."""
    tests = [BinOp("eq", Sym(name), Const(value)) for name, value in values]
    return reduce(lambda a, b: BinOp("and", a, b), tests)


@st.composite
def sampled_pairs(draw):
    """Expression pairs of every kind the sampler meets: symbol-free, up to
    four symbols (four exceed the exhaustive boundary product), differing
    early, differing only on one late row, or agreeing everywhere."""
    names = draw(st.sampled_from([(), ("a",), ("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]))
    lhs = draw(exprs(names))
    kind = draw(st.sampled_from(["random", "one-row", "agree"]))
    if kind == "random":
        rhs = draw(exprs(names))
    elif kind == "agree" or not names:
        rhs = BinOp("add", lhs, Const(0))  # unsimplified, equal on every row
    else:
        value = st.one_of(st.sampled_from(BOUNDARY_VALUES), U32)
        cond = _only_at([(name, draw(value)) for name in names])
        rhs = Ite(cond, draw(exprs(names)), lhs)
    return lhs, rhs


class TestCheapFirstSampling:
    @settings(max_examples=300, deadline=None)
    @given(pair=sampled_pairs(), seed=U32)
    def test_prefix_then_scan_finds_the_full_scan_row(self, pair, seed):
        lhs, rhs = pair
        assert _first_difference(lhs, rhs, seed) == _full_scan(lhs, rhs, seed)

    def test_difference_past_the_prefix(self):
        """A pair differing only at row 17 (x = 1, y = 5 in the boundary
        product) is not decided in the prefix; the compiled scan over the
        rest of the stream returns that row."""
        x, y = Sym("late_x"), Sym("late_y")
        rhs = Ite(_only_at([("late_x", 1), ("late_y", 5)]), BinOp("add", x, y), x)
        before = sampler_stats()
        found = _first_difference(x, rhs, 0)
        after = sampler_stats()
        assert found == {"late_x": 1, "late_y": 5} == _full_scan(x, rhs, 0)
        rows = list(_assignment_rows(("late_x", "late_y"), [0xFFFFFFFF] * 2, 0))
        assert rows.index((1, 5)) == 17 >= PREFIX_ROWS
        assert after["sampled"] == before["sampled"] + 1
        assert after["prefix_decided"] == before["prefix_decided"]
        assert after["compiled_scans"] == before["compiled_scans"] + 1

    def test_stream_starts_with_the_boundary_product(self):
        """The boundary cross product comes first, the last symbol varying
        fastest, each value masked to its symbol's width."""
        for names in [("a",), ("a", "b"), ("a", "b", "c")]:
            masks = [0xFF, 0xFFFFFFFF, 0x1][: len(names)]
            product = [
                tuple(v & m for v, m in zip(combo, masks))
                for combo in itertools.product(BOUNDARY_VALUES, repeat=len(names))
            ]
            rows = list(_assignment_rows(names, masks, 7))
            assert rows[: len(product)] == product
            assert len(rows) == len(product) + RANDOM_SAMPLES
