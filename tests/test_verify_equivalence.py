"""Tests for expression equivalence checking."""

from hypothesis import given, settings, strategies as st

from repro.symir import BinOp, Const, Sym, UnOp, binop, simplify, unop
from repro.verify.equivalence import _sample_seed, exprs_equal, find_counterexample

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
