"""Expression equivalence checking.

No SMT solver is available offline, so equivalence is decided by:

1. canonical simplification to syntactic equality (sound accept);
2. evaluation over the cross product of 13 boundary values per free symbol
   when it fits in 4,096 assignments, or 4,096 sampled boundary rows
   otherwise (sound *reject*, near-exhaustive accept for small products);
3. randomized evaluation over 160 full-width vectors (sound reject,
   probabilistic accept).

This matches the trust model of testing-based translation validation; the
paper's own verifier (symbolic execution + solver) is stricter only in the
"accept" direction, and every rule this checker accepts is additionally
exercised end-to-end by the DBT integration tests.

Performance: expression nodes are interned (:mod:`repro.symir.expr`), so
verdicts are memoized process-wide keyed on the node pair itself — the
mapping search in :mod:`repro.verify.checker` re-compares the same
guest/host value expressions across many candidate mappings and shape-class
representatives.  Sampling lowers each compared pair to one compiled row
scanner (:func:`repro.symir.rowcompile.pair_evaluator`), so an assignment
costs straight-line bytecode rather than per-node interpretation.
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import Iterable, Sequence, Tuple

from repro.cache import MISS, BoundedMemo
from repro.symir import Expr, free_symbols, simplify
from repro.symir.rowcompile import pair_evaluator

#: Boundary values every symbol is exercised with.
BOUNDARY_VALUES: Tuple[int, ...] = (
    0,
    1,
    2,
    3,
    5,
    0x7F,
    0x80,
    0xFF,
    0x100,
    0x7FFFFFFF,
    0x80000000,
    0xFFFFFFFF,
    0xFFFFFFFE,
)

RANDOM_SAMPLES = 160
_MAX_EXHAUSTIVE_ASSIGNMENTS = 4096

#: Verdict memo keyed ``(lhs, rhs, seed)`` on interned nodes; sound because
#: the verdict is a pure function of the pair (the sampling rng is seeded
#: by :func:`_sample_seed`) and interning makes structurally equal keys
#: identical.
_EQUAL_MEMO = BoundedMemo(maxsize=65536, name="verify.exprs_equal")


#: Materialized boundary-value cross products keyed by the masks tuple —
#: they are seed-independent, and most expression pairs share a handful of
#: width signatures, so the product is built once per signature.
_BOUNDARY_ROWS_MEMO = BoundedMemo(maxsize=64, name="verify.boundary_rows")


def _boundary_rows(masks: Tuple[int, ...]) -> list:
    rows = _BOUNDARY_ROWS_MEMO.get(masks)
    if rows is MISS:
        rows = [
            tuple(v & m for v, m in zip(combo, masks))
            for combo in itertools.product(BOUNDARY_VALUES, repeat=len(masks))
        ]
        _BOUNDARY_ROWS_MEMO.put(masks, rows)
    return rows


def _assignment_rows(
    names: Sequence[str], masks: Sequence[int], seed: int
) -> Iterable[tuple]:
    """Test assignments as value tuples in *names* order.

    The boundary-value cross product when it fits in
    ``_MAX_EXHAUSTIVE_ASSIGNMENTS`` rows (that many sampled boundary rows
    otherwise), then ``RANDOM_SAMPLES`` random full-width vectors; each
    value is masked to its symbol's width.
    """
    if names:
        total = len(BOUNDARY_VALUES) ** len(names)
        if total <= _MAX_EXHAUSTIVE_ASSIGNMENTS:
            yield from _boundary_rows(tuple(masks))
        else:
            rng = random.Random(seed ^ 0x5EED)
            for _ in range(_MAX_EXHAUSTIVE_ASSIGNMENTS):
                yield tuple(rng.choice(BOUNDARY_VALUES) & m for m in masks)

    rng = random.Random(seed)
    for _ in range(RANDOM_SAMPLES):
        yield tuple(rng.getrandbits(32) & m for m in masks)
    if not names:
        yield ()


def _first_difference(lhs: Expr, rhs: Expr, seed: int) -> dict | None:
    """First assignment (in :func:`_assignment_rows` order) distinguishing
    the two expressions, or ``None``.  *lhs*/*rhs* must already be
    simplified."""
    symbols = list(dict.fromkeys(free_symbols(lhs) + free_symbols(rhs)))
    # Compiled row evaluation: the pair is lowered once to a generated
    # Python function over value rows (shared subterms computed once per
    # row), so an assignment costs a single pass of straight-line bytecode
    # instead of a per-node interpreter dispatch.  The scanner consumes the
    # assignment stream lazily and stops at the first differing row.
    names = tuple(s.name for s in symbols)
    widths = {s.name: s.width for s in symbols}
    masks = [(1 << widths[n]) - 1 for n in names]
    scan = pair_evaluator(lhs, rhs, names)
    index = scan(_assignment_rows(names, masks, seed))
    if index < 0:
        return None
    row = next(itertools.islice(_assignment_rows(names, masks, seed), index, None))
    return dict(zip(names, row))


def _sample_seed(lhs: Expr, rhs: Expr, seed: int) -> int:
    """The sampling seed for a simplified pair.

    ``zlib.crc32`` of the two reprs, not ``hash``: string hashing is
    randomized per process, and the verdict (memoized here and cached on
    disk with derived rules) must be the same in every process.
    """
    return seed ^ zlib.crc32(f"{lhs!r}|{rhs!r}".encode())


def exprs_equal(lhs: Expr, rhs: Expr, seed: int = 0) -> bool:
    """Decide whether two expressions are semantically equal.

    ``False`` is definitive (a distinguishing assignment exists); ``True`` is
    definitive when reached by syntactic equality and high-confidence
    otherwise.
    """
    key = (lhs, rhs, seed)
    verdict = _EQUAL_MEMO.get(key)
    if verdict is not MISS:
        return verdict
    slhs = simplify(lhs)
    srhs = simplify(rhs)
    if slhs is srhs or slhs == srhs:
        verdict = True
    elif slhs.width != srhs.width:
        verdict = False
    else:
        mix = _sample_seed(slhs, srhs, seed)
        verdict = _first_difference(slhs, srhs, mix) is None
    _EQUAL_MEMO.put(key, verdict)
    return verdict


def find_counterexample(lhs: Expr, rhs: Expr, seed: int = 0) -> dict | None:
    """Return a distinguishing assignment if one is found, else ``None``."""
    lhs = simplify(lhs)
    rhs = simplify(rhs)
    if lhs == rhs:
        return None
    return _first_difference(lhs, rhs, seed)
