"""Tests for the hash join's one build/probe kernel.

``JoinBuild.match`` is checked against a brute-force dict join and
against its own binary-search branch (forced by building for the same
input with the directory disabled), the radix-ordered build against a
stable ``argsort``, and ``Executor.join_rows`` against the argsort +
double-``searchsorted`` join it replaced.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import join_build
from repro.engine.executor import Executor, _expand_ranges
from repro.engine.join_build import JoinBuild
from repro.engine.plans import JOIN_HASH, JoinNode, PlanNode

from tests.conftest import make_key_db

INT64 = np.iinfo(np.int64)


def brute_force(keys, valid, probe_keys):
    """Per probe key: build positions holding it, in build-input order."""
    table: dict = {}
    for position in np.nonzero(valid)[0]:
        table.setdefault(keys[position].item(), []).append(int(position))
    return [table.get(key.item(), []) for key in probe_keys]


def matched_positions(build, probe_keys):
    starts, counts = build.match(probe_keys)
    return [
        build.positions[start : start + count].tolist()
        for start, count in zip(starts, counts)
    ]


def binary_search_build(monkeypatch, keys, valid):
    """The same build with the directory ruled out by the span rule."""
    with monkeypatch.context() as patch:
        patch.setattr(join_build, "DIRECTORY_SPAN_FACTOR", 0)
        build = JoinBuild(keys, valid, probe_rows=0)
    assert not build.direct
    return build


def ints(values):
    return np.asarray(values, dtype=np.int64)


def all_valid(keys):
    return np.ones(len(keys), dtype=bool)


#: (name, build keys, build validity, probe keys) where the directory applies.
DIRECT_CASES = [
    ("empty-probe", ints([3, 1, 2]), None, ints([])),
    ("duplicates-both-sides", ints([5, 3, 5, 3, 3, 9]), None, ints([3, 3, 5, 9, 9, 4])),
    ("dangling-and-negative", ints([-4, -2, -2, 0, 3]), None, ints([-9, -4, -3, -2, 1, 3, 7])),
    (
        "null-build-rows",
        ints([7, 7, 8, 9, 9]),
        np.array([True, False, True, False, True]),
        ints([7, 8, 9, 10]),
    ),
    (
        "near-int64-max",
        ints([INT64.max, INT64.max - 2, INT64.max]),
        None,
        ints([INT64.max, INT64.max - 1, INT64.max - 2, INT64.min, 0, -1]),
    ),
    (
        "near-int64-min",
        ints([INT64.min + 1, INT64.min, INT64.min + 1]),
        None,
        ints([INT64.min, INT64.min + 1, INT64.min + 2, INT64.max, 0]),
    ),
]


class TestMatch:
    @pytest.mark.parametrize(
        "keys, valid, probe", [case[1:] for case in DIRECT_CASES],
        ids=[case[0] for case in DIRECT_CASES],
    )
    def test_directory_equals_binary_search_and_brute_force(
        self, monkeypatch, keys, valid, probe
    ):
        valid = all_valid(keys) if valid is None else valid
        build = JoinBuild(keys, valid, probe_rows=len(probe))
        assert build.direct
        reference = binary_search_build(monkeypatch, keys, valid)
        for ours, theirs in zip(build.match(probe), reference.match(probe)):
            np.testing.assert_array_equal(ours, theirs)
            assert ours.dtype == theirs.dtype
        assert matched_positions(build, probe) == brute_force(keys, valid, probe)

    def test_random_inputs_agree_on_both_branches(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(50):
            low = int(rng.integers(-50, 50))
            keys = rng.integers(low, low + int(rng.integers(1, 40)), int(rng.integers(1, 60)))
            valid = rng.random(len(keys)) < 0.8
            probe = rng.integers(low - 5, low + 45, int(rng.integers(0, 80)))
            build = JoinBuild(keys, valid, probe_rows=len(probe))
            reference = binary_search_build(monkeypatch, keys, valid)
            for ours, theirs in zip(build.match(probe), reference.match(probe)):
                np.testing.assert_array_equal(ours, theirs)
            assert matched_positions(build, probe) == brute_force(keys, valid, probe)

    def test_empty_build(self):
        build = JoinBuild(ints([]), np.zeros(0, dtype=bool), probe_rows=3)
        starts, counts = build.match(ints([1, 2, 3]))
        assert not build.direct
        assert starts.tolist() == [0, 0, 0] and counts.tolist() == [0, 0, 0]

    def test_all_null_build(self):
        keys = ints([1, 2, 3])
        build = JoinBuild(keys, np.zeros(3, dtype=bool), probe_rows=2)
        assert len(build.positions) == 0
        assert build.match(ints([1, 2]))[1].tolist() == [0, 0]

    def test_float_keys_take_binary_search(self):
        keys = np.array([0.5, 1.5, 0.5, 2.25])
        probe = np.array([0.5, 2.25, 3.0, -1.0])
        build = JoinBuild(keys, all_valid(keys), probe_rows=len(probe))
        assert not build.direct
        assert matched_positions(build, probe) == brute_force(keys, all_valid(keys), probe)

    def test_float_probe_of_int_build_takes_binary_search(self):
        keys = ints([1, 2, 2, 4])
        build = JoinBuild(keys, all_valid(keys), probe_rows=3)
        assert build.direct
        starts, counts = build.match(np.array([2.0, 2.5, 4.0]))
        assert starts.tolist() == [1, 3, 3] and counts.tolist() == [2, 0, 1]

    def test_sparse_domain_takes_binary_search(self):
        keys = ints([0, 10**12, 10**12, -(10**15)])
        probe = ints([10**12, 5, -(10**15), INT64.max])
        build = JoinBuild(keys, all_valid(keys), probe_rows=len(probe))
        assert not build.direct
        assert matched_positions(build, probe) == brute_force(keys, all_valid(keys), probe)

    def test_span_of_int64_extremes_does_not_wrap(self):
        # kmax - kmin + 1 == 2**64 here: as an int64 it would read 0
        # and pass any span rule.
        keys = ints([INT64.min, INT64.max])
        build = JoinBuild(keys, all_valid(keys), probe_rows=10)
        assert not build.direct
        assert build.match(ints([INT64.max, 0, INT64.min]))[1].tolist() == [1, 0, 1]

    def test_span_rule_counts_probe_rows(self):
        keys = ints([0, 100])
        assert not JoinBuild(keys, all_valid(keys), probe_rows=0).direct
        assert JoinBuild(keys, all_valid(keys), probe_rows=100).direct

    def test_directory_is_charged(self):
        keys = ints([0, 100])
        sparse = JoinBuild(keys, all_valid(keys), probe_rows=0)
        dense = JoinBuild(keys, all_valid(keys), probe_rows=100)
        assert dense.nbytes == sparse.nbytes + 102 * 8


@contextmanager
def sorted_dtypes():
    """Records the dtype of every array ``np.argsort`` is given."""
    seen = []
    argsort = np.argsort

    def spy(values, *args, **kwargs):
        seen.append(values.dtype)
        return argsort(values, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", spy)
        yield seen


#: Spans at and around the one-pass and the radix limits, and the widest.
SPANS = [
    *(0, 1, 7, 2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1),
    *(2**32 - 1, 2**32, 2**32 + 1, 2**40, INT64.max, INT64.max - INT64.min),
]


@st.composite
def int_build_inputs(draw):
    """INT build keys with NULLs over a strided, offset domain whose span
    is drawn around 2**16 and 2**32, up to the int64 extremes."""
    span = draw(st.sampled_from(SPANS))
    stride = draw(st.sampled_from([1, 2, 3, 1000, 2**16 + 3]))
    steps = span // stride
    span = steps * stride
    kmin = draw(
        st.one_of(
            st.just(INT64.min),
            st.just(INT64.max - span),
            st.integers(INT64.min, INT64.max - span),
        )
    )
    middle = draw(st.lists(st.integers(0, steps), max_size=60))
    keys = [kmin + stride * step for step in [0, steps, *middle]]
    keys = draw(st.permutations(keys))
    valid = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return ints(keys), np.asarray(valid, dtype=bool)


@st.composite
def float_build_inputs(draw):
    """FLOAT build keys with NULLs and duplicates."""
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(pool), max_size=40))
    valid = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return np.asarray(keys, dtype=np.float64), np.asarray(valid, dtype=bool)


class TestStableOrder:
    @settings(max_examples=300, deadline=None)
    @given(inputs=st.one_of(int_build_inputs(), float_build_inputs()))
    def test_build_order_is_stable_argsort_order(self, inputs):
        """Property: the radix-ordered build is argsort's permutation, and
        it takes the radix path exactly where the span allows it."""
        keys, valid = inputs
        build_ids = np.nonzero(valid)[0]
        order = np.argsort(keys[build_ids], kind="stable")
        with sorted_dtypes() as dtypes:
            build = JoinBuild(keys, valid, probe_rows=0)
        np.testing.assert_array_equal(build.sorted_keys, keys[build_ids][order])
        np.testing.assert_array_equal(build.positions, build_ids[order])
        assert build.sorted_keys.dtype == keys.dtype
        assert build.positions.dtype == build_ids.dtype

        if keys.dtype != np.int64 or len(build_ids) == 0:
            expected = [keys.dtype]
        else:
            span = int(keys[build_ids].max()) - int(keys[build_ids].min())
            if span < 2**16:
                expected = [np.uint16]
            elif span < join_build.RADIX_SPAN_LIMIT:
                expected = [np.uint16, np.uint16]
            else:
                expected = [np.int64]
        assert dtypes == expected

    @pytest.mark.parametrize("span, passes", [(2**16 - 1, 1), (2**16, 2), (2**32 - 1, 2)])
    def test_dense_domains_take_the_radix_path(self, span, passes):
        rng = np.random.default_rng(span)
        keys = rng.integers(-5, span - 5, 5_000, endpoint=True)
        keys[:2] = -5, span - 5
        valid = rng.random(len(keys)) < 0.9
        valid[:2] = True
        with sorted_dtypes() as dtypes:
            build = JoinBuild(keys, valid, probe_rows=len(keys))
        assert dtypes == [np.uint16] * passes
        order = np.argsort(keys[valid], kind="stable")
        np.testing.assert_array_equal(build.positions, np.nonzero(valid)[0][order])

    def test_database_index_is_radix_ordered(self):
        keys = np.arange(1_000, dtype=np.int64)[::-1] % 300
        db = make_key_db(keys, all_valid(keys), keys, all_valid(keys))
        with sorted_dtypes() as dtypes:
            index = db.index("r", "k")
        assert dtypes == [np.uint16]
        np.testing.assert_array_equal(index.positions, np.argsort(keys, kind="stable"))


def parent_hash_join(left, left_keys, left_valid, right, right_keys, right_valid):
    """The hash join as it was before JoinBuild: argsort + two searches."""
    build_ids = np.nonzero(right_valid)[0]
    build_keys = right_keys[build_ids]
    order = np.argsort(build_keys, kind="stable")
    sorted_keys, sorted_build = build_keys[order], build_ids[order]
    probe_ids = np.nonzero(left_valid)[0]
    probe_keys = left_keys[probe_ids]
    starts = np.searchsorted(sorted_keys, probe_keys, side="left")
    ends = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = ends - starts
    probe_take = np.repeat(probe_ids, counts)
    build_take = sorted_build[_expand_ranges(starts, counts)]
    combined = {name: ids[probe_take] for name, ids in left.items()}
    combined.update({name: ids[build_take] for name, ids in right.items()})
    return combined


class TestHashJoin:
    def test_rows_equal_parent_on_skewed_fk_fk_input(self):
        """Seeded zipf-skewed FK-FK join with NULLs on both sides: the
        output is the parent's row for row, in the same order."""
        rng = np.random.default_rng(42)
        left_keys = rng.zipf(1.3, 4_000).clip(max=300).astype(np.int64)
        right_keys = rng.zipf(1.3, 2_500).clip(max=400).astype(np.int64) - 20
        left_valid = rng.random(len(left_keys)) < 0.9
        right_valid = rng.random(len(right_keys)) < 0.9
        # Row ids are shuffled, so keys are looked up through them;
        # ``b`` is a passenger column of an earlier join.
        left = {"l": rng.permutation(len(left_keys)), "b": np.arange(len(left_keys))}
        right = {"r": rng.permutation(len(right_keys))}

        def stored(ids, array):
            out = np.empty_like(array)
            out[ids] = array
            return out

        db = make_key_db(
            stored(left["l"], left_keys),
            stored(left["l"], left_valid),
            stored(right["r"], right_keys),
            stored(right["r"], right_valid),
        )

        assert JoinBuild(right_keys, right_valid, probe_rows=len(left_keys)).direct
        node = JoinNode(
            tables=frozenset("lbr"),
            left=PlanNode(tables=frozenset("lb")),
            right=PlanNode(tables=frozenset("r")),
            edge=db.join_graph.edges[0],
            method=JOIN_HASH,
        )
        ours = Executor(db).join_rows(node, left, right)
        theirs = parent_hash_join(
            left, left_keys, left_valid, right, right_keys, right_valid
        )
        assert list(ours) == list(theirs)
        for name in theirs:
            np.testing.assert_array_equal(ours[name], theirs[name])
        assert len(ours["l"]) > len(left_keys)  # the skew really fans out
