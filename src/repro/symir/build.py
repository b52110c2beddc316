"""Simplifying smart constructors for symbolic expressions.

All symbolic execution goes through these constructors, so expressions stay
close to a canonical form as they are built:

* constants fold eagerly;
* algebraic identities collapse (``x + 0``, ``x ^ x``, ``x & x``, ...);
* commutative operators order their operands canonically so syntactic
  comparison catches commuted-but-equal expressions.

This is intentionally a rewriting *constructor* layer rather than a separate
normalization pass; :func:`repro.symir.simplify.simplify` re-runs trees
through these constructors bottom-up.
"""

from __future__ import annotations

from repro.symir.expr import (
    COMMUTATIVE_OPS,
    COMPARISON_OPS,
    BinOp,
    Const,
    Expr,
    Extract,
    Ite,
    Sym,
    UnOp,
    ZeroExt,
)
from repro.symir.evaluate import evaluate

TRUE = Const(1, 1)
FALSE = Const(0, 1)


def const(value: int, width: int = 32) -> Const:
    return Const(value, width)


def sym(name: str, width: int = 32) -> Sym:
    return Sym(name, width)


def _canonical_key(expr: Expr) -> tuple:
    """Deterministic ordering key for commutative operand sorting.

    Constants sort last so identities like ``(add (add x 1) 2)`` keep the
    constant in a foldable position, symbols sort by name, and composite
    nodes by their repr.
    """
    if isinstance(expr, Const):
        return (2, expr.value, "")
    if isinstance(expr, Sym):
        return (0, 0, expr.name)
    return (1, 0, repr(expr))


def _fold(op: str, lhs: Const, rhs: Const) -> Const:
    width = 1 if op in COMPARISON_OPS else lhs.width
    value = evaluate(BinOp(op, lhs, rhs), {})
    return Const(value, width)


def binop(op: str, lhs: Expr, rhs: Expr) -> Expr:
    """Build ``(op lhs rhs)`` with folding and identity simplification."""
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return _fold(op, lhs, rhs)

    if op in COMMUTATIVE_OPS and _canonical_key(rhs) < _canonical_key(lhs):
        lhs, rhs = rhs, lhs

    width = lhs.width
    # The value of *rhs* when it is a constant of the operand width: the
    # identities below compare it without building the constants.
    k = rhs.value if type(rhs) is Const and rhs.width == width else None
    ones = (1 << width) - 1

    if op == "add":
        if k == 0:
            return lhs
        # (add (add x c1) c2) -> (add x (c1+c2))
        if isinstance(rhs, Const) and isinstance(lhs, BinOp) and lhs.op == "add" and isinstance(lhs.rhs, Const):
            return binop("add", lhs.lhs, _fold("add", lhs.rhs, rhs))
    elif op == "sub":
        if k == 0:
            return lhs
        if lhs == rhs:
            return Const(0, width)
        if isinstance(rhs, Const):
            return binop("add", lhs, Const(-rhs.value, rhs.width))
    elif op == "mul":
        if k == 0:
            return Const(0, width)
        if k == 1:
            return lhs
    elif op == "and":
        if k == 0:
            return Const(0, width)
        if k == ones:
            return lhs
        if lhs == rhs:
            return lhs
    elif op == "or":
        if k == 0:
            return lhs
        if k == ones:
            return Const(ones, width)
        if lhs == rhs:
            return lhs
    elif op == "xor":
        if k == 0:
            return lhs
        if lhs == rhs:
            return Const(0, width)
    elif op in ("shl", "lshr", "ashr"):
        if k == 0:
            return lhs
        if isinstance(rhs, Const) and rhs.value >= width and op != "ashr":
            return Const(0, width)
    elif op == "eq":
        if lhs == rhs:
            return TRUE
    elif op == "ne":
        if lhs == rhs:
            return FALSE
    elif op in ("ult", "slt"):
        if lhs == rhs:
            return FALSE
    elif op in ("ule", "sle"):
        if lhs == rhs:
            return TRUE

    return BinOp(op, lhs, rhs)


def unop(op: str, operand: Expr) -> Expr:
    if isinstance(operand, Const):
        return Const(evaluate(UnOp(op, operand), {}), operand.width)
    if op == "not" and isinstance(operand, UnOp) and operand.op == "not":
        return operand.operand
    if op == "neg" and isinstance(operand, UnOp) and operand.op == "neg":
        return operand.operand
    return UnOp(op, operand)


def ite(cond: Expr, then: Expr, orelse: Expr) -> Expr:
    if isinstance(cond, Const):
        return then if cond.value else orelse
    if then == orelse:
        return then
    return Ite(cond, then, orelse)


def extract(operand: Expr, lo: int, width: int) -> Expr:
    if isinstance(operand, Const):
        return Const((operand.value >> lo) & ((1 << width) - 1), width)
    if lo == 0 and width == operand.width:
        return operand
    if isinstance(operand, ZeroExt):
        inner = operand.operand
        if lo + width <= inner.width:
            return extract(inner, lo, width)
        if lo >= inner.width:
            return Const(0, width)
    return Extract(operand, lo, width)


def zero_ext(operand: Expr, width: int) -> Expr:
    if width == operand.width:
        return operand
    if isinstance(operand, Const):
        return Const(operand.value, width)
    return ZeroExt(operand, width)


# Convenience wrappers -------------------------------------------------------


def add(a: Expr, b: Expr) -> Expr:
    return binop("add", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return binop("sub", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return binop("mul", a, b)


def and_(a: Expr, b: Expr) -> Expr:
    return binop("and", a, b)


def or_(a: Expr, b: Expr) -> Expr:
    return binop("or", a, b)


def xor(a: Expr, b: Expr) -> Expr:
    return binop("xor", a, b)


def not_(a: Expr) -> Expr:
    return unop("not", a)


def neg(a: Expr) -> Expr:
    return unop("neg", a)


def eq(a: Expr, b: Expr) -> Expr:
    return binop("eq", a, b)


def is_zero(a: Expr) -> Expr:
    return binop("eq", a, Const(0, a.width))
