"""Unit tests for the columnar :class:`RecordBatch` and its kernels.

The batch layer's contract is exactness: ``to_records`` must reconstruct
the original records bit-for-bit, and every kernel must reproduce the
record kernels' output order and values.  These tests pin the layout
rules, the numpy-backing edge cases (where a silent fallback would cost
only speed but a wrong conversion would cost correctness), the join fast
paths against a reference implementation, and the selection rule of the
``run_*`` functions: explicit declaration -> batch, implicit one -> batch
only from a batch, nothing declared -> the record kernel and a list.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import operators as ops
from repro.core.batch import (
    RecordBatch,
    batch_keys,
    fold_by_key_columns,
    join_indices,
    pair_sum_reduce,
    run_filter,
    run_flat_map,
    run_join,
    run_map,
    run_reduce,
    run_sort,
    sort_order,
)
from repro.workloads import graphs, tpch
from repro.workloads.graphs import community_edges, parse_edge, parse_edges
from repro.workloads.tpch import (
    SF1_ROWS,
    TpchLite,
    _to_csv,
    parse_batch,
    parse_row,
)


class TestLayouts:
    def test_dict_layout_round_trip(self):
        rows = [{"a": i, "b": float(i), "c": f"s{i}"} for i in range(10)]
        batch = RecordBatch.from_records(rows)
        assert batch.kind == "dict"
        assert batch.names == ("a", "b", "c")
        assert batch.to_records() == rows

    def test_tuple_layout_round_trip(self):
        rows = [(i, i * 2.5) for i in range(7)]
        batch = RecordBatch.from_records(rows)
        assert batch.kind == "tuple"
        assert batch.to_records() == rows

    def test_scalar_layout_round_trip(self):
        rows = ["alpha", "beta", "gamma"]
        batch = RecordBatch.from_records(rows)
        assert batch.kind == "scalar"
        assert batch.to_records() == rows

    def test_heterogeneous_records_fall_back_to_scalar(self):
        rows = [{"a": 1}, (2, 3), "four"]
        batch = RecordBatch.from_records(rows)
        assert batch.kind == "scalar"
        assert batch.to_records() == rows

    def test_mixed_key_dicts_fall_back_to_scalar(self):
        rows = [{"a": 1}, {"b": 2}]
        batch = RecordBatch.from_records(rows)
        assert batch.kind == "scalar"
        assert batch.to_records() == rows

    def test_empty_batch(self):
        batch = RecordBatch.from_records([])
        assert len(batch) == 0
        assert batch.to_records() == []

    def test_pair_round_trip(self):
        left = RecordBatch.from_records([{"k": 1}, {"k": 2}])
        right = RecordBatch.from_records([(1, "x"), (2, "y")])
        batch = RecordBatch.pair(left, right)
        assert batch.to_records() == [({"k": 1}, (1, "x")),
                                      ({"k": 2}, (2, "y"))]

    def test_pairs_of_dict_rows_read_back_as_the_pair_layout(self):
        # What a record-kernel join of dict rows emits: a declared
        # ``batch_udf`` reads ``.left`` / ``.right`` whichever kernel ran.
        rows = [({"k": 1, "a": "x"}, {"k": 1, "b": 2.5}),
                ({"k": 2, "a": "y"}, {"k": 2, "b": 0.5})]
        batch = RecordBatch.from_records(rows)
        assert batch.kind == "pair"
        assert batch.left.col("a").tolist() == ["x", "y"]
        assert batch.right.col("b").tolist() == [2.5, 0.5]
        assert batch.to_records() == rows
        # Anything else of width two stays a tuple layout with ``col``.
        assert RecordBatch.from_records([("w", 1), ("v", 2)]).kind == "tuple"
        assert RecordBatch.from_records(
            [({"k": 1}, (1, 2)), ({"k": 2}, (3, 4))]).kind == "tuple"


_LAYOUTS = {
    "dict": RecordBatch.from_records([{"a": 1, "b": 2.0}]),
    "tuple": RecordBatch.from_records([(1, 2.0)]),
    "scalar": RecordBatch.from_records([1, 2]),
    "pair": RecordBatch.from_records([({"a": 1}, {"b": 2})]),
}


class TestAbsentColumns:
    """``col`` raises ``KeyError`` — never ``ValueError`` / ``IndexError``
    — so ``batch_keys`` can fall back to the key UDF on every layout."""

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("key", ["absent", 7, -3, None, 1.5])
    def test_col_raises_key_error(self, layout, key):
        with pytest.raises(KeyError):
            _LAYOUTS[layout].col(key)
        assert _LAYOUTS[layout].array(key) is None

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("key", ["absent", 7])
    def test_batch_keys_fall_back_to_the_key_udf(self, layout, key):
        batch = _LAYOUTS[layout]
        assert batch_keys(batch, key, repr) == [
            repr(r) for r in batch.to_records()]

    def test_present_columns_are_preferred(self):
        assert batch_keys(_LAYOUTS["dict"], "a", None) == [1]
        assert batch_keys(_LAYOUTS["tuple"], 1, None) == [2.0]
        assert batch_keys(_LAYOUTS["scalar"], 0, None) == [1, 2]

    def test_join_with_a_key_column_missing_on_one_side(self):
        left = RecordBatch.from_records([{"k": 1, "l": 0}, {"k": 2, "l": 1}])
        right = RecordBatch.from_records([{"j": 2}, {"j": 1}])
        logical = ops.Join(lambda x: x["k"], lambda x: x["j"],
                           left_key_column="k", right_key_column="k")
        assert run_join(logical, left, right) == [
            ({"k": 1, "l": 0}, {"j": 1}), ({"k": 2, "l": 1}, {"j": 2})]


class TestNumpyBacking:
    def test_homogeneous_columns_are_numpy_backed(self):
        rows = [{"i": n, "f": n / 3.0, "s": f"v{n}"} for n in range(5)]
        batch = RecordBatch.from_records(rows)
        for name in ("i", "f", "s"):
            assert batch.array(name) is not None

    def test_scalar_strings_stay_a_list(self):
        # Lines and words are read as Python strings: a fixed-width text
        # matrix of them costs more to build than a kernel saves.
        parts = [RecordBatch.from_records(["a|1", "b|2"]),
                 RecordBatch.from_records(["c|3"])]
        for batch in parts + [RecordBatch.concat(parts)]:
            assert type(batch.col(0)) is list
        assert RecordBatch.concat(parts).to_records() == ["a|1", "b|2", "c|3"]

    def test_backing_arrays_are_read_only(self):
        batch = RecordBatch.from_records([1, 2, 3])
        arr = batch.array(0)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 99

    def test_bool_stays_off_the_int_path(self):
        # bool is an int subclass; np.int64 would turn True into 1 and
        # break to_records exactness.
        rows = [True, False, True]
        batch = RecordBatch.from_records(rows)
        assert batch.array(0) is None
        out = batch.to_records()
        assert out == rows and all(type(v) is bool for v in out)

    def test_mixed_bool_int_stays_object(self):
        batch = RecordBatch.from_records([True, 1])
        assert batch.array(0) is None
        assert [type(v) for v in batch.to_records()] == [bool, int]

    def test_int64_overflow_stays_object(self):
        rows = [2**63, -5, 7]
        batch = RecordBatch.from_records(rows)
        assert batch.array(0) is None
        assert batch.to_records() == rows

    def test_trailing_nul_strings_stay_object(self):
        # numpy's fixed-width unicode dtype drops trailing NULs, which
        # would silently shorten the strings on round-trip.
        rows = ["a\x00", "b"]
        batch = RecordBatch.from_records(rows)
        assert batch.array(0) is None
        assert batch.to_records() == rows

    def test_scalar_records_are_plain_python_types(self):
        # Regression: the scalar layout used list(column), and iterating
        # a numpy array yields numpy scalars — np.str_ keys leaked into
        # wordcount results and np.int64 (not an int subclass) into
        # downstream records.
        for rows in (["to be", "or not"], [1, 2], [0.5, 1.5]):
            out = RecordBatch.from_records(rows).to_records()
            assert out == rows
            assert [type(v) for v in out] == [type(v) for v in rows]

    def test_int_float_round_trip_is_exact(self):
        ints = [0, -1, 2**62, -(2**63), 2**63 - 1]
        floats = [0.1, -0.0, 1e-308, 1.7976931348623157e308, 2.0**-1074]
        assert RecordBatch.from_records(ints).to_records() == ints
        out = RecordBatch.from_records(floats).to_records()
        assert [v.hex() for v in out] == [v.hex() for v in floats]


class TestKernels:
    def test_take_orders_rows(self):
        batch = RecordBatch.from_records([{"v": i} for i in range(5)])
        out = batch.take(np.array([3, 0, 3]))
        assert out.to_records() == [{"v": 3}, {"v": 0}, {"v": 3}]

    def test_mask_preserves_order(self):
        batch = RecordBatch.from_records(list(range(6)))
        out = batch.mask(np.array([1, 0, 1, 0, 0, 1], dtype=bool))
        assert out.to_records() == [0, 2, 5]

    def test_concat_mixed_layouts(self):
        a = RecordBatch.from_records([{"v": 1}])
        b = RecordBatch.from_records([(2, 3)])
        assert RecordBatch.concat([a, b]).to_records() == [{"v": 1}, (2, 3)]

    def test_concat_same_layout_preserves_order(self):
        a = RecordBatch.from_records([1, 2])
        b = RecordBatch.from_records([3])
        out = RecordBatch.concat([a, b])
        assert out.to_records() == [1, 2, 3]
        assert not out.array(0).flags.writeable

    def test_sort_order_matches_python_stability(self):
        keys = [3, 1, 3, 2, 1]
        rows = list(enumerate(keys))
        for descending in (False, True):
            order = sort_order(np.array(keys), descending)
            got = [rows[i] for i in order.tolist()]
            # Python's sort is stable in BOTH directions: reverse=True
            # must not reverse ties.
            assert got == sorted(rows, key=lambda t: t[1],
                                 reverse=descending)

    def test_descending_int64_minimum_sorts_last(self):
        # ``-keys`` wraps -2**63 onto itself and sorts it FIRST.
        keys = [-2**63, 0, 5]
        assert sort_order(np.array(keys), True).tolist() == [2, 1, 0]
        assert sort_order(np.array(keys), False).tolist() == [0, 1, 2]

    def test_nan_keys_decline(self):
        assert sort_order(np.array([1.0, float("nan")]), False) is None
        assert sort_order(np.array([1.0, float("nan")]), True) is None

    def test_fold_by_key_matches_legacy_fold(self):
        rows = [("a", 1.0), ("b", 2.0), ("a", 0.5), ("a", 4.0), ("b", 8.0)]
        batch = RecordBatch.from_records(rows)
        out = fold_by_key_columns(batch, 0, 1, lambda a, b: a + b)
        acc: dict = {}
        for k, v in rows:
            acc[k] = acc[k] + v if k in acc else v
        assert out.to_records() == list(acc.items())


def _reference_join(left_keys, right_keys):
    """The per-record engines' hash join, as index pairs."""
    table: dict = {}
    for j, k in enumerate(right_keys):
        table.setdefault(k, []).append(j)
    li, ri = [], []
    for i, k in enumerate(left_keys):
        for j in table.get(k, ()):
            li.append(i)
            ri.append(j)
    return li, ri


class TestJoinIndices:
    @pytest.mark.parametrize("left,right", [
        # Dense integer keys: exercises the direct-address run table.
        ([3, 1, 4, 1, 5, 9, 2], [1, 1, 2, 3, 5, 8]),
        # Sparse keys whose span rules the table out: binary-search path.
        ([0, 10**15, 7], [10**15, 7, 0, 10**15]),
        # Duplicates on both sides; output must be left order crossed
        # with right insertion order.
        ([2, 2, 1], [1, 2, 2, 1]),
        # Negative keys and out-of-range probes.
        ([-5, 0, 99, -6], [-5, -5, 0]),
        # Empty left side.
        ([], [1, 2]),
        # Empty right side.
        ([1, 2], []),
    ])
    def test_matches_reference_hash_join(self, left, right):
        li, ri = join_indices(np.array(left, dtype=np.int64),
                              np.array(right, dtype=np.int64))
        ref_li, ref_ri = _reference_join(left, right)
        assert li.tolist() == ref_li
        assert ri.tolist() == ref_ri

    def test_float_keys_use_search_path(self):
        left = [1.5, 2.5, 1.5]
        right = [2.5, 1.5, 2.5]
        li, ri = join_indices(np.array(left), np.array(right))
        ref_li, ref_ri = _reference_join(left, right)
        assert li.tolist() == ref_li and ri.tolist() == ref_ri

    def test_randomized_dense_keys_match_reference(self):
        rng = np.random.default_rng(7)
        left = rng.integers(0, 50, size=300)
        right = rng.integers(0, 50, size=80)
        li, ri = join_indices(left.astype(np.int64), right.astype(np.int64))
        ref_li, ref_ri = _reference_join(left.tolist(), right.tolist())
        assert li.tolist() == ref_li and ri.tolist() == ref_ri


def _join(left_col=None, right_col=None):
    return ops.Join(lambda x: x["k"], lambda x: x["k"],
                    left_key_column=left_col, right_key_column=right_col)


class TestApplyJoin:
    def test_vectorized_and_fallback_paths_agree(self):
        left = [{"k": i % 3, "l": i} for i in range(9)]
        right = [{"k": i % 4, "r": i} for i in range(8)]
        lb = RecordBatch.from_records(left)
        rb = RecordBatch.from_records(right)
        expected = [(l, r) for l in left for r in right if l["k"] == r["k"]]
        # Declared columns + a batch on either side: the columnar kernel.
        for a, b in ((lb, rb), (lb, right), (left, rb)):
            fast = run_join(_join("k", "k"), a, b)
            assert isinstance(fast, RecordBatch) and fast.kind == "pair"
            assert fast.to_records() == expected
        # Declared columns over two lists, or batches with nothing
        # declared: the record kernel, a list.
        assert run_join(_join("k", "k"), left, right) == expected
        assert run_join(_join(), lb, rb) == expected

    def test_nan_keys_fall_back_to_hash_semantics(self):
        # NaN != NaN in the hash join; the sort-based fast path would
        # pair them, so it must decline.
        nan = float("nan")
        left = [{"k": nan, "l": 0}, {"k": 1.0, "l": 1}]
        right = [{"k": nan, "r": 0}, {"k": 1.0, "r": 1}]
        out = run_join(_join("k", "k"), RecordBatch.from_records(left),
                       RecordBatch.from_records(right))
        assert out == [({"k": 1.0, "l": 1}, {"k": 1.0, "r": 1})]


class TestApplyFilter:
    def test_range_filter_matches_predicate(self):
        rows = [{"v": i} for i in range(20)]
        batch = RecordBatch.from_records(rows)
        ranged = ops.Filter(lambda r: 5 <= r["v"] <= 12,
                            column="v", low=5, high=12)
        plain = ops.Filter(lambda r: 5 <= r["v"] <= 12)
        expected = [r for r in rows if 5 <= r["v"] <= 12]
        fast = run_filter(ranged, batch)
        assert isinstance(fast, RecordBatch)
        assert fast.to_records() == expected
        # Implicit: a list in is the record kernel and a list out.
        assert run_filter(ranged, rows) == expected
        assert run_filter(plain, batch) == expected

    def test_declared_mask_always_runs_columnar(self):
        rows = [{"v": i} for i in range(6)]
        declared = ops.Filter(lambda r: r["v"] % 2 == 0,
                              batch_udf=lambda b: b.col("v") % 2 == 0)
        out = run_filter(declared, rows)
        assert isinstance(out, RecordBatch)
        assert out.to_records() == rows[::2]


class TestSelection:
    """Explicit declarations emit batches from lists; without one the
    record kernel emits a list from a batch."""

    PAIRS = [("a", 1.0), ("b", 2.0), ("a", 0.5)]

    def test_map_and_flat_map(self):
        doubled = [(k, v * 2) for k, v in self.PAIRS]
        declared = ops.Map(
            lambda t: (t[0], t[1] * 2),
            batch_udf=lambda b: RecordBatch.from_tuple_columns(
                (b.col(0), np.asarray(b.col(1)) * 2)))
        out = run_map(declared, self.PAIRS)
        assert isinstance(out, RecordBatch) and out.to_records() == doubled
        plain = ops.Map(lambda t: (t[0], t[1] * 2))
        assert run_map(plain, RecordBatch.from_records(self.PAIRS)) == doubled
        flat = ops.FlatMap(lambda t: [t[0]] * 2,
                           batch_udf=lambda b: np.repeat(b.col(0), 2).tolist())
        out = run_flat_map(flat, self.PAIRS)
        assert isinstance(out, RecordBatch)
        assert out.to_records() == ["a", "a", "b", "b", "a", "a"]
        assert all(type(w) is str for w in out.to_records())

    def test_reduce_and_sort(self):
        reducer = ops.ReduceBy(lambda t: t[0],
                               lambda a, b: (a[0], a[1] + b[1]),
                               batch_impl=pair_sum_reduce(0, 1))
        out = run_reduce(reducer, self.PAIRS)
        assert isinstance(out, RecordBatch)
        assert out.to_records() == [("a", 1.5), ("b", 2.0)]
        plain = ops.ReduceBy(lambda t: t[0], lambda a, b: (a[0], a[1] + b[1]))
        assert run_reduce(plain, RecordBatch.from_records(self.PAIRS)) == [
            ("a", 1.5), ("b", 2.0)]
        ordered = ops.Sort(lambda t: t[1], batch_key=lambda b: b.col(1))
        out = run_sort(ordered, self.PAIRS)
        assert isinstance(out, RecordBatch)
        assert out.to_records() == sorted(self.PAIRS, key=lambda t: t[1])

    def test_a_broadcast_reaches_the_declared_kernel(self):
        declared = ops.Map(
            lambda x, b: x + b[0],
            batch_udf=lambda batch, b: (batch.col(0) + b[0]).tolist())
        out = run_map(declared, [1, 2, 3], [[10]])
        assert isinstance(out, RecordBatch)
        assert out.to_records() == [11, 12, 13]

    def test_a_list_is_columnarized_a_block_at_a_time(self, monkeypatch):
        from repro.core import batch as batch_module

        monkeypatch.setattr(batch_module, "BLOCK_ROWS", 3)
        seen = []

        def watched(fn):
            def batch_udf(b):
                seen.append(len(b))
                return fn(b)
            return batch_udf

        rows = list(range(10))
        mapped = run_map(ops.Map(lambda x: x * 2, batch_udf=watched(
            lambda b: (b.col(0) * 2).tolist())), rows)
        flat = run_flat_map(ops.FlatMap(
            lambda x: [x] * (x % 3), batch_udf=watched(
                lambda b: [x for x in b.to_records()
                           for __ in range(x % 3)])), rows)
        kept = run_filter(ops.Filter(lambda x: x % 2 == 0, batch_udf=watched(
            lambda b: b.col(0) % 2 == 0)), rows)
        assert seen == [3, 3, 3, 1] * 3
        assert mapped.to_records() == [x * 2 for x in rows]
        assert flat.to_records() == [x for x in rows for __ in range(x % 3)]
        assert kept.to_records() == rows[::2]
        # A batch is read whole: it is columnar already.
        del seen[:]
        run_map(ops.Map(None, batch_udf=watched(lambda b: b)),
                RecordBatch.from_records(rows))
        assert seen == [10]

    def test_an_empty_batch_passes_through_declared_kernels(self):
        # No rows, no layout: a ``batch_udf`` reading ``b.left`` or
        # ``b.col("x")`` has nothing to read and is not called.
        def boom(*args):
            raise AssertionError("called on an empty batch")

        for logical, run in (
                (ops.Map(boom, batch_udf=boom), run_map),
                (ops.FlatMap(boom, batch_udf=boom), run_flat_map),
                (ops.Filter(boom, batch_udf=boom), run_filter),
                (ops.ReduceBy(boom, boom, batch_impl=boom), run_reduce),
                (ops.Sort(boom, batch_key=boom), run_sort)):
            for empty in ([], RecordBatch.from_records([])):
                out = run(logical, empty)
                assert isinstance(out, RecordBatch) and len(out) == 0


_INT64 = st.integers(-2**63, 2**63 - 1) | st.sampled_from(
    [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 1])
_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, float("inf"), float("-inf")])


class TestSortProperty:
    """``run_sort`` with a ``batch_key`` == ``sorted(records, key=,
    reverse=)``: int64 extremes, -0.0 / inf, ties in both directions."""

    @given(st.lists(st.tuples(_INT64 | st.sampled_from([3, 3, 7]),
                              st.integers(0, 3)), max_size=12),
           st.booleans())
    def test_int_keys(self, records, descending):
        self._check(records, descending)

    @given(st.lists(st.tuples(_FLOATS, st.integers(0, 3)), max_size=12),
           st.booleans())
    def test_float_keys(self, records, descending):
        self._check(records, descending)

    @staticmethod
    def _check(records, descending):
        logical = ops.Sort(lambda t: t[0], descending,
                           batch_key=lambda b: b.col(0))
        got = run_sort(logical, records).to_records()
        expected = sorted(records, key=lambda t: t[0], reverse=descending)
        # repr: 0.0 == -0.0, and a tie must keep ITS row, not an equal one.
        assert [repr(r) for r in got] == [repr(r) for r in expected]


def _parsed(table, lines):
    """``parse_batch`` over ``lines`` as records, or ValueError."""
    try:
        out = parse_batch(table, RecordBatch.from_records(lines))
    except ValueError:
        return ValueError
    return out.to_records() if isinstance(out, RecordBatch) else out


def _per_record(table, lines):
    """``parse_row`` over ``lines``, or ValueError."""
    try:
        return [parse_row(table, line) for line in lines]
    except ValueError:
        return ValueError


def _exact(rows):
    """Rows by ``repr`` and exact type per field: ``==`` counts 0.0 equal
    to -0.0 and 1 equal to 1.0."""
    if rows is ValueError:
        return rows
    return [[(k, type(v).__name__, repr(v)) for k, v in row.items()]
            for row in rows]


#: Field texts ``int()`` / ``float()`` may or may not accept: every one
#: the byte pass declines must fall back to ``parse_row``'s answer.  The
#: last two have mantissas above 2**53 that a Clinger division misrounds.
_ODD_TEXTS = [
    "-5", "+5", "-0.0", "0.0", "-0", "1e5", "1E-3", "2.5e+3", "inf",
    "-inf", "nan", "NaN", "Infinity", " 5", "5 ", " 1.5", "1.5\t", "1_000",
    "1_0.5", "007", "000.250", ".5", "5.", ".", "..", "1.2.3", "",
    "9007199254740992", "9007199254740993", "0." + "1" * 23, "1" * 18,
    "1" * 19, "9" * 20, "x\x00", "\x00", "7\x00", "é", "٣", "1\n2", "1|2",
    "ASIA", "a.b", "1:5", "1/5", "0x1f", "7.3785690282684228",
    "7931475343646273.2",
]
_ODD_FIELDS = st.sampled_from(_ODD_TEXTS)

_FIELD = st.one_of(
    _ODD_FIELDS,
    st.integers(0, 10 ** 20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.from_regex(r"[0-9]{0,18}\.?[0-9]{0,18}", fullmatch=True),
    st.text(max_size=6),
)


@functools.lru_cache(maxsize=None)
def _table(name):
    return TpchLite(0.01).table(name)


@st.composite
def _blocks(draw):
    """A table and a block of its CSV lines with up to two fields mutated
    and, sometimes, one line a field short or long."""
    table = draw(st.sampled_from(sorted(SF1_ROWS) + ["lineitem"] * 4))
    rows = _table(table)
    lines = [_to_csv(table, draw(st.sampled_from(rows))).split("|")
             for __ in range(draw(st.integers(0, 5)))]
    for __ in range(draw(st.integers(0, 2)) if lines else 0):
        fields = draw(st.sampled_from(lines))
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELD)
    if lines and draw(st.integers(0, 4)) == 0:
        fields = draw(st.sampled_from(lines))
        if draw(st.booleans()):
            fields.pop()
        else:
            fields.append(draw(_FIELD))
    return table, ["|".join(fields) for fields in lines]


class TestParseBatch:
    @settings(max_examples=300, deadline=None)
    @given(_blocks())
    def test_matches_parse_row_by_repr_and_type(self, block):
        table, lines = block
        assert _exact(_parsed(table, lines)) == \
            _exact(_per_record(table, lines))

    @pytest.mark.parametrize("table", ["lineitem", "orders", "nation"])
    def test_every_odd_text_in_every_column(self, table):
        clean = _to_csv(table, _table(table)[3]).split("|")
        for column in range(len(clean)):
            for text in _ODD_TEXTS:
                odd = "|".join(clean[:column] + [text] + clean[column + 1:])
                lines = ["|".join(clean), odd, "|".join(clean)]
                assert _exact(_parsed(table, lines)) == \
                    _exact(_per_record(table, lines)), (column, text)

    def test_q5_lines_take_the_byte_pass(self, monkeypatch):
        # Guards against a silent fall back to the per-record parse: the
        # Q5 source tables parse without one parse_row call, from a scalar
        # batch that holds the lines as they came (a list, no text matrix).
        calls = []
        real = parse_row
        monkeypatch.setattr(tpch, "parse_row",
                            lambda *args: calls.append(args) or real(*args))
        for table in ("lineitem", "orders"):
            rows = TpchLite(0.1, actual_scale=2.0).table(table)
            lines = [_to_csv(table, r) for r in rows]
            batch = RecordBatch.from_records(lines)
            assert type(batch.col(0)) is list and batch.col(0) == lines
            out = parse_batch(table, batch)
            assert isinstance(out, RecordBatch)
            assert _exact(out.to_records()) == _exact(
                [real(table, line) for line in lines])
        assert calls == []

    @pytest.mark.parametrize("table", sorted(SF1_ROWS))
    def test_parity_with_parse_row(self, table):
        rows = TpchLite(0.1, actual_scale=2.0).table(table)
        lines = [_to_csv(table, r) for r in rows]
        assert _exact(_parsed(table, lines)) == \
            _exact(_per_record(table, lines))

    @pytest.mark.parametrize("line", [
        "1|x|2.0|0.1",       # non-numeric int field
        "ü|2|1.0|0.5",  # non-ASCII in an int field
    ])
    def test_malformed_number_raises_like_parse_row(self, line):
        batch = RecordBatch.from_records([line])
        with pytest.raises(ValueError):
            parse_batch("lineitem", batch)
        with pytest.raises(ValueError):
            parse_row("lineitem", line)

    def test_non_ascii_name_falls_back_and_matches(self):
        lines = ["0|1|NATIÖN", "1|2|NATION"]
        assert _exact(_parsed("nation", lines)) == \
            _exact(_per_record("nation", lines))

    @pytest.mark.parametrize("lines", [
        [],
        ["1|2|3.0"],                # short row: separator-count fallback
        ["-5|2|1.0|0.5"],           # sign: per-record fallback
        ["1|2|1e-05|0.5"],          # exponent float
        ["1|2\n3|4"],               # a "\n" inside a short row's field
        ["1|2|3.5|0.1|9", "1|2|3.5"],  # long and short rows, same count
        ["1|2|3.5|0.1", "10|20|70000.25|0.07"],
    ])
    def test_edge_inputs_match_per_record_parse(self, lines):
        assert _exact(_parsed("lineitem", lines)) == \
            _exact(_per_record("lineitem", lines))


def _edges_parsed(parse, lines):
    """Edge records by ``repr`` and exact type, or the exception type."""
    try:
        out = parse(lines)
    except ValueError as exc:
        return type(exc)
    if isinstance(out, RecordBatch):
        out = out.to_records()
    return [(type(r).__name__, [(type(v).__name__, repr(v)) for v in r])
            for r in out]


def _by_byte_pass(lines):
    return parse_edges(RecordBatch.from_records(lines))


def _per_edge(lines):
    return [parse_edge(line) for line in lines]


#: Field and separator texts ``str.split`` and ``int()`` may read in a way
#: the byte pass must not guess at: every one has to fall back.
_ODD_EDGE_FIELDS = [
    "+5", "-5", "-0", "1_000", "007", "0", "1" * 18, "9" * 18, "1" * 19,
    "9" * 19, "9" * 20, "1" + "0" * 19, "7\x00", "\x00", "é", "٣", "",
    "1.0", "0x1f", "1e3",
]
_ODD_EDGE_SEPS = [
    "\t", "  ", " \t", "\x0b", "\x0c", "\x1c", "\r", "\n", "\x85",
    "\xa0", "\u3000", "|", ",", "",
]
_EDGE_FIELD = st.one_of(
    st.sampled_from(_ODD_EDGE_FIELDS),
    st.integers(-10 ** 21, 10 ** 21).map(str),
    st.text(max_size=4),
)
_EDGE_SEP = st.one_of(st.just(" "), st.sampled_from(_ODD_EDGE_SEPS))


@st.composite
def _edge_blocks(draw):
    """Generated ``"src dst"`` lines with up to two fields mutated, some
    separators and blanks swapped for odd ones, sometimes one line a field
    short or long — or an empty block."""
    lines = [[str(a), str(b)] for a, b in draw(st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
        max_size=6))]
    for __ in range(draw(st.integers(0, 2)) if lines else 0):
        fields = draw(st.sampled_from(lines))
        fields[draw(st.integers(0, 1))] = draw(_EDGE_FIELD)
    if lines and draw(st.integers(0, 4)) == 0:
        fields = draw(st.sampled_from(lines))
        if draw(st.booleans()):
            fields.pop()
        else:
            fields.append(draw(_EDGE_FIELD))
    out = []
    for fields in lines:
        odd = draw(st.integers(0, 5)) == 0
        sep = draw(_EDGE_SEP) if odd else " "
        lead = draw(st.sampled_from(["", " ", "\t"])) if odd else ""
        trail = draw(st.sampled_from(["", " ", "\t", "\n"])) if odd else ""
        out.append(lead + sep.join(fields) + trail)
    return out


class TestParseEdges:
    @settings(max_examples=400, deadline=None)
    @given(_edge_blocks())
    def test_matches_parse_edge_by_repr_and_type(self, lines):
        assert _edges_parsed(_by_byte_pass, lines) == \
            _edges_parsed(_per_edge, lines)

    def test_every_odd_field_and_separator(self):
        for position in range(2):
            for text in _ODD_EDGE_FIELDS:
                odd = ["12", "34"]
                odd[position] = text
                lines = ["1 2", " ".join(odd), "3 4"]
                assert _edges_parsed(_by_byte_pass, lines) == \
                    _edges_parsed(_per_edge, lines), (position, text)
        for sep in _ODD_EDGE_SEPS:
            for line in (f"12{sep}34", f"{sep}12 34", f"12 34{sep}"):
                lines = ["1 2", line, "3 4"]
                assert _edges_parsed(_by_byte_pass, lines) == \
                    _edges_parsed(_per_edge, lines), line

    @pytest.mark.parametrize("lines", [
        [], ["5"], ["1 2 3"], ["1 2", "3"], ["1 2 3", "4"],
    ])
    def test_field_counts_match_parse_edge(self, lines):
        assert _edges_parsed(_by_byte_pass, lines) == \
            _edges_parsed(_per_edge, lines)

    def test_crocopr_lines_take_the_byte_pass(self, monkeypatch):
        # Guards against a silent fall back to the per-record parse: the
        # benchmark-size CrocoPR lines parse without one parse_edge call,
        # into a tuple batch of two int64 columns.
        calls = []
        monkeypatch.setattr(graphs, "parse_edge",
                            lambda line: calls.append(line) or
                            parse_edge(line))
        for community in (0, 1):
            lines = [f"{a} {b}" for a, b in community_edges(
                community, num_edges=10_000, num_vertices=1_000)]
            out = parse_edges(RecordBatch.from_records(lines))
            assert out.kind == "tuple"
            assert [out.col(j).dtype for j in range(2)] == [np.int64] * 2
            assert _edges_parsed(lambda __: out, lines) == \
                _edges_parsed(_per_edge, lines)
        assert calls == []
