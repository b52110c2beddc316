"""Tests for the closure-compiled row evaluators.

The load-bearing property: the generated straight-line code agrees with the
reference interpreter (:func:`repro.symir.evaluate.evaluate`) on every
operator, width quirk (shift overflow, signed compares, narrow symbols),
and sharing structure.
"""

from hypothesis import given, settings, strategies as st

from repro.symir import BinOp, Const, Sym, UnOp, evaluate
from repro.symir.expr import (
    BINARY_OPS,
    COMPARISON_OPS,
    UNARY_OPS,
    Ite,
    ZeroExt,
)
from repro.symir.rowcompile import pair_evaluator

U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

_NAMES = ("a", "b", "c")
_ARITH_OPS = sorted(BINARY_OPS - COMPARISON_OPS)
_CMP_OPS = sorted(COMPARISON_OPS)


def exprs(names=_NAMES):
    """Random well-formed 32-bit expressions (comparisons re-widened) over
    symbols named *names* (constants only when it is empty).

    Leaves are constructed at draw time, not strategy-build time: a Sym
    captured across a ``clear_all_caches()`` belongs to a dead interning
    epoch, and composites interned over it would break the ``is``-identity
    guarantee for later same-epoch nodes.
    """
    constant = U32.map(lambda v: Const(v))
    leaf = st.one_of(st.sampled_from(names).map(Sym), constant) if names else constant

    def extend(children):
        binary = st.builds(
            BinOp, st.sampled_from(_ARITH_OPS), children, children
        )
        unary = st.builds(UnOp, st.sampled_from(sorted(UNARY_OPS)), children)
        compare = st.builds(
            BinOp, st.sampled_from(_CMP_OPS), children, children
        )
        widened = compare.map(lambda cmp: ZeroExt(cmp, 32))
        selected = st.builds(Ite, compare, children, children)
        return st.one_of(binary, unary, widened, selected)

    return st.recursive(leaf, extend, max_leaves=8)


rows_strategy = st.lists(
    st.tuples(U32, U32, U32), min_size=1, max_size=8
)


class TestPairEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(lhs=exprs(), rhs=exprs(), rows=rows_strategy)
    def test_first_difference_matches_interpreter(self, lhs, rhs, rows):
        fn = pair_evaluator(lhs, rhs, _NAMES)
        expected = -1
        for i, row in enumerate(rows):
            env = dict(zip(_NAMES, row))
            if evaluate(lhs, env) != evaluate(rhs, env):
                expected = i
                break
        assert fn(rows) == expected

    @settings(max_examples=50, deadline=None)
    @given(expr=exprs(), rows=rows_strategy)
    def test_identical_sides_never_differ(self, expr, rows):
        fn = pair_evaluator(expr, expr, _NAMES)
        assert fn(rows) == -1

    def test_consumes_rows_lazily(self):
        lhs, rhs = Sym("a"), Const(0)
        fn = pair_evaluator(lhs, rhs, ("a",))
        consumed = []

        def rows():
            for value in (0, 0, 5, 0, 0):
                consumed.append(value)
                yield (value,)

        assert fn(rows()) == 2
        assert consumed == [0, 0, 5], "scan must stop at the first difference"

    def test_narrow_symbol_masks_on_read(self):
        fn = pair_evaluator(Sym("a", 8), Const(0xFF, 8), ("a",))
        assert fn([(0x1FF,), (0x100,)]) == 1
