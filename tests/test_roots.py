import numpy as np

import _reference as ref
from dvqkd import roots


class TestBisectPredicate:
    """bisect_predicate tests several bisection levels per predicate call; every
    bracket must end as the bisection testing one level per call ends it, bit for bit."""

    @staticmethod
    def _compare(pred, holds, fails):
        """Both bisections on the same brackets; returns the new one's predicate calls
        as (values tested, elements tested)."""
        size = np.size(holds)
        calls = []

        def indexed(x, i):
            calls.append((x.size, np.unique(i).size))
            return pred(x, i)

        got = roots.bisect_predicate(indexed, holds, fails)
        want = ref.bisect_predicate_one_level(
            lambda x: pred(x, np.arange(size).reshape(np.shape(x))), holds, fails
        )
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        return calls

    @staticmethod
    def _edges(rng, size):
        return 10.0 ** rng.uniform(-12.0, 3.0, size)

    @staticmethod
    def _brackets(rng, edges):
        """Seeded brackets around each edge, some wide, some narrow, in either order."""
        below = edges * (1.0 - 10.0 ** rng.uniform(-9.0, -0.01, edges.size))
        above = edges * (1.0 + 10.0 ** rng.uniform(-9.0, 3.0, edges.size))
        flip = rng.random(edges.size) < 0.5
        return np.where(flip, above, below), np.where(flip, below, above), flip

    def test_arrays_match_the_one_level_bisection(self):
        rng = np.random.default_rng(1)
        for size in (1, 2, 7, 60, 300):
            edges = self._edges(rng, size)
            holds, fails, flip = self._brackets(rng, edges)
            # holds below the edge where holds < fails, above it elsewhere
            calls = self._compare(lambda x, i: (x < edges[i]) != flip[i], holds, fails)
            assert all(values <= roots._CALL_WIDTH for values, _ in calls)

    def test_floats_match_the_one_level_bisection(self):
        for holds, fails in ((0.25, 0.5), (0.5, 0.25), (1.0, 1e-9), (1e-9, 1.0)):
            calls = self._compare(lambda x, i: (x < 0.37) == (holds < fails), holds, fails)
            assert calls == [(1023, 1)] * len(calls) and len(calls) <= 3  # ten levels per call

    def test_two_dimensional_brackets_keep_their_shape(self):
        rng = np.random.default_rng(2)
        edges = self._edges(rng, 12).reshape(3, 4)
        holds, fails, flip = self._brackets(rng, edges.ravel())
        self._compare(
            lambda x, i: (x < edges.ravel()[i]) != flip[i], holds.reshape(3, 4), fails.reshape(3, 4)
        )

    def test_non_monotone_predicates_follow_the_same_midpoints(self):
        # the walk follows each element's own bisection, whatever the predicate answers
        rng = np.random.default_rng(3)
        holds, fails = rng.uniform(0.0, 1.0, 50), rng.uniform(1.0, 2.0, 50)
        self._compare(lambda x, i: (x.view(np.int64) >> 20) % 3 != i % 2, holds, fails)

    def test_an_end_at_zero_runs_to_the_step_limit(self):
        calls = self._compare(lambda x, i: x <= 0.0, 0.0, 1.0)
        # ten levels of its tree, then halvings below it up to the step limit, in one call
        assert calls == [(1023 + roots._MAX_STEPS - 10, 1)]
        holds, fails = roots.bisect_predicate(lambda x, i: x <= 0.0, np.zeros(3), np.ones(3))
        assert holds.tolist() == [0.0] * 3 and fails.tolist() == [2.0**-roots._MAX_STEPS] * 3

    def test_brackets_with_an_end_at_zero_halve_toward_it(self):
        # [0, top] and [top, 0] among other brackets, edges down to 2^-199 top, so that
        # some flip just before the step limit
        rng = np.random.default_rng(5)
        tops = 10.0 ** rng.uniform(-12.0, 3.0, 40)
        edges = tops * 2.0 ** -rng.uniform(0.5, 199.0, 40)
        at_zero = np.arange(40) % 2 == 0  # holds at 0 and below the edge, else above it
        others = self._edges(rng, 20)
        holds, fails, flip = self._brackets(rng, others)
        edges, flip = np.append(edges, others), np.append(~at_zero, flip)
        holds = np.append(np.where(at_zero, 0.0, tops), holds)
        fails = np.append(np.where(at_zero, tops, 0.0), fails)
        calls = self._compare(lambda x, i: (x < edges[i]) != flip[i], holds, fails)
        # one level per call takes 200 calls, and trees of levels alone 42; the halvings
        # below the trees take up to one more call width
        assert len(calls) <= 10 and all(values <= 2 * roots._CALL_WIDTH for values, _ in calls)
        # halvings into subnormals, down to 0, from either end
        for edge, at_zero in ((5e-324, True), (0.0, True), (0.0, False)):
            holds, fails = (0.0, 1e-300) if at_zero else (1e-300, 0.0)
            self._compare(lambda x, i: (x < edge) == at_zero, holds, fails)

    def test_brackets_narrower_than_the_tolerance_still_take_one_step(self):
        holds = np.array([1.0, 2.0, 5.0, 0.3])
        fails = holds * (1.0 + np.array([1e-9, -1e-8, 1e-7, 5e-7]))
        calls = self._compare(lambda x, i: i % 2 == 0, holds, fails)
        assert len(calls) == 1
        # a narrow bracket among wide ones stops after its first step too
        holds, fails = np.array([1.0, 1.0]), np.array([1.0 + 1e-9, 2.0])
        self._compare(lambda x, i: x < 1.5, holds, fails)

    def test_more_brackets_than_the_call_width_test_one_level_each(self):
        rng = np.random.default_rng(4)
        size = roots._CALL_WIDTH + 500
        edges = self._edges(rng, size)
        holds, fails, flip = self._brackets(rng, edges)
        calls = self._compare(lambda x, i: (x < edges[i]) != flip[i], holds, fails)
        assert calls[0] == (size, size)
        for values, elements in calls:  # one level each while more are live than the width
            assert values == elements or values <= roots._CALL_WIDTH
        assert any(values > elements for values, elements in calls)  # deeper once fewer are live

    def test_each_value_comes_with_its_element_index(self):
        edges, tops = np.array([0.1, 10.0, 3.0]), np.array([1.0, 100.0, 4.0])
        seen = []

        def pred(x, i):
            seen.append((x, i))
            return x < edges[i]

        holds, fails = roots.bisect_predicate(pred, np.zeros(3), tops)
        for x, i in seen:
            assert np.all((0.0 < x) & (x < tops[i]))
        assert np.allclose(0.5 * (holds + fails), edges, rtol=roots.REL_TOL)
