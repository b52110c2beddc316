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
representatives.  Sampling is cheap-first: the first ``PREFIX_ROWS`` rows
of the assignment stream are interpreted (:func:`repro.symir.evaluate.
evaluate`), and only a pair that agrees on all of them is lowered to a
compiled row scanner (:func:`repro.symir.rowcompile.pair_evaluator`) for
the rest of the same stream, where an assignment costs straight-line
bytecode rather than per-node interpretation.  Most rejected pairs differ
within the prefix (over the 20 ``learn`` sets of perfbench seed 1, 3,806
of 4,102 sampled rejects differ within 16 rows), so they never pay a
``compile()``; the rows are visited in the same order either way, so the
verdict and the counterexample row are those of a full compiled scan.
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import Dict, Iterator, Sequence, Tuple

from repro.cache import MISS, BoundedMemo
from repro.symir import Expr, evaluate, free_symbols, simplify
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

#: Rows interpreted before a pair's scanner is compiled.  Over the 20
#: ``learn`` sets of perfbench seed 1, 1,450 sampled rejects differed at
#: row 0, 1,638 at rows 1–3, 718 at rows 4–15 and 296 later.
PREFIX_ROWS = 16

#: Process counters of :func:`_first_difference`: pairs sampled, pairs
#: whose difference the interpreted prefix found, and compiled scans.
_sampled = 0
_prefix_decided = 0
_compiled_scans = 0


def sampler_stats() -> Dict[str, int]:
    """How many pairs were sampled, how many of them the interpreted
    prefix decided, and how many needed a compiled scan (this process)."""
    return {
        "sampled": _sampled,
        "prefix_decided": _prefix_decided,
        "compiled_scans": _compiled_scans,
    }

#: Verdict memo keyed ``(lhs, rhs, seed)`` on interned nodes; sound because
#: the verdict is a pure function of the pair (the sampling rng is seeded
#: by :func:`_sample_seed`) and interning makes structurally equal keys
#: identical.
_EQUAL_MEMO = BoundedMemo(maxsize=65536, name="verify.exprs_equal")


def _assignment_rows(
    names: Sequence[str], masks: Sequence[int], seed: int
) -> Iterator[tuple]:
    """Test assignments as value tuples in *names* order, generated lazily.

    The boundary-value cross product (the last symbol varying fastest) when
    it fits in ``_MAX_EXHAUSTIVE_ASSIGNMENTS`` rows (that many sampled
    boundary rows otherwise), then ``RANDOM_SAMPLES`` random full-width
    vectors; each value is masked to its symbol's width.
    """
    if names:
        total = len(BOUNDARY_VALUES) ** len(names)
        if total <= _MAX_EXHAUSTIVE_ASSIGNMENTS:
            yield from itertools.product(
                *[[v & m for v in BOUNDARY_VALUES] for m in masks]
            )
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
    global _sampled, _prefix_decided, _compiled_scans
    symbols = list(dict.fromkeys(free_symbols(lhs) + free_symbols(rhs)))
    names = tuple(s.name for s in symbols)
    widths = {s.name: s.width for s in symbols}
    masks = [(1 << widths[n]) - 1 for n in names]
    _sampled += 1
    rows = _assignment_rows(names, masks, seed)
    # Cheap first: interpret the prefix (one evaluation cache per row, so
    # subterms shared by the two sides are computed once), where most
    # rejected pairs already differ.
    for row in itertools.islice(rows, PREFIX_ROWS):
        env = dict(zip(names, row))
        values: Dict[int, int] = {}
        if evaluate(lhs, env, values) != evaluate(rhs, env, values):
            _prefix_decided += 1
            return env
    # Then the compiled scanner over the rest of the same stream: the pair
    # is lowered once to a generated Python function over value rows, and
    # it stops at the first differing row.
    _compiled_scans += 1
    index = pair_evaluator(lhs, rhs, names)(rows)
    if index < 0:
        return None
    rows = _assignment_rows(names, masks, seed)
    row = next(itertools.islice(rows, PREFIX_ROWS + index, None))
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
