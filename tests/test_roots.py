import math

import numpy as np
import pytest

import _reference as ref
from dvqkd import boundary, roots


class TestBisectPredicate:
    """bisect_predicate tests several bisection levels per predicate call; every
    bracket must end as the bisection testing one level per call ends it, bit for bit."""

    @staticmethod
    def _compare(pred, holds, fails):
        """Both bisections on the same brackets, for a predicate or a real margin (the
        one-level bisection takes its sign); returns the new one's calls as (values
        tested, elements tested)."""
        size = np.size(holds)
        calls = []

        def indexed(x, i):
            calls.append((x.size, np.unique(i).size))
            return pred(x, i)

        got = roots.bisect_predicate(indexed, holds, fails)
        want = ref.bisect_predicate_one_level(
            lambda x: pred(x, np.arange(size).reshape(np.shape(x))) > 0, holds, fails
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

    def test_brackets_across_zero_halve_toward_it_once_an_end_lands_there(self):
        # a bracket whose midpoint is 0 takes that end's line of halvings from then on
        for edge in (0.0, 1e-300, -1e-300, 1e-30, -1e-30, 5e-324, -5e-324, 0.3, -0.3):
            for holds, fails in ((-1.0, 1.0), (1.0, -1.0), (-3.0, 1.0)):
                calls = self._compare(lambda x, i: (x <= edge) == (holds < fails), holds, fails)
                assert len(calls) <= 4, (edge, holds, fails)

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


class TestGuessedBisection:
    """Given a real margin, each bracket with positive ends guesses its edge from the
    margin on its first tree of four levels or more, and tests the path of midpoints
    the guess implies; every bracket still ends as the one-level bisection ends it."""

    _compare = staticmethod(TestBisectPredicate._compare)

    @staticmethod
    def _draw(rng, size):
        edges = TestBisectPredicate._edges(rng, size)
        holds, fails, flip = TestBisectPredicate._brackets(rng, edges)
        return edges, holds, fails, np.where(flip, -1.0, 1.0)

    def test_smooth_margins_take_one_call_after_the_tree(self):
        rng = np.random.default_rng(7)
        for size in (1, 7, 60, 68):
            edges, holds, fails, sign = self._draw(rng, size)
            # linear margins, positive below each edge or above it, on brackets of any width
            calls = self._compare(lambda x, i: sign[i] * (edges[i] - x), holds, fails)
            assert len(calls) <= 2, calls  # levels of the tree, then every guessed path
            # curved ones on brackets [a, 2a] of the doubling ladder
            lows = 1e-12 * 2.0 ** rng.integers(0, 50, size)
            edges = lows * rng.uniform(1.0, 2.0, size)
            for margin in (
                lambda x, i: np.log(edges[i]) - np.log(x),
                lambda x, i: edges[i] / (1.0 + edges[i]) - x / (1.0 + x),
                lambda x, i: np.exp(-x / edges[i]) - np.exp(-1.0),
            ):
                calls = self._compare(margin, lows, 2.0 * lows)
                assert len(calls) <= 2, calls

    def test_rough_and_non_monotone_margins_match_the_one_level_bisection(self):
        rng = np.random.default_rng(8)
        edges, holds, fails, sign = self._draw(rng, 60)
        noise = rng.standard_normal(1 << 20)
        margins = (
            # a margin below rounding: noise on a tiny slope
            lambda x, i: sign[i] * ((edges[i] - x) * 1e-9 + noise[x.view(np.int64) % noise.size]),
            # steps between smooth stretches, a kink at each edge, and bits changing sign
            lambda x, i: sign[i] * (edges[i] - x + 0.1 * edges[i] * (x > 1.01 * edges[i])),
            lambda x, i: sign[i] * np.abs(edges[i] - x) * np.where(x < edges[i], 1.0, -3.0),
            lambda x, i: ((x.view(np.int64) >> 20) % 3 != i % 2) - 0.5 + 1e-3 * x / edges[i],
            # infinite beyond each edge, and at a third of the nodes
            lambda x, i: sign[i] * np.where(x < edges[i], 1.0, -np.inf),
            lambda x, i: np.where((x.view(np.int64) >> 7) % 3 == 0, np.inf, sign[i] * (edges[i] - x)),
        )
        for margin in margins:
            self._compare(margin, holds, fails)

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda guess, h, f: guess * (1.0 + 1e-3),
            lambda guess, h, f: guess * (1.0 - 1e-7),
            lambda guess, h, f: np.full_like(guess, np.nan),
            lambda guess, h, f: 2.0 * f - h,  # beyond the failing end
            lambda guess, h, f: np.full_like(guess, np.inf),
        ],
        ids=["1e-3 relative", "1e-7 relative", "NaN", "outside the bracket", "inf"],
    )
    def test_wrong_guesses_move_no_result(self, wrong, monkeypatch):
        true = roots._guess
        monkeypatch.setattr(roots, "_guess", lambda h, f, margin: wrong(true(h, f, margin), h, f))
        rng = np.random.default_rng(9)
        edges, holds, fails, sign = self._draw(rng, 60)
        self._compare(lambda x, i: sign[i] * (edges[i] - x), holds, fails)
        # brackets that use up their steps: 1e-300 to 1, edges near the small end
        tiny = 10.0 ** -rng.uniform(250.0, 300.0, 30)
        holds, fails = np.full(30, 1e-300), np.ones(30)
        calls = self._compare(lambda x, i: tiny[i] - x, holds, fails)
        assert all(values <= roots._CALL_WIDTH + roots._GUESS_WIDTH for values, _ in calls)

    def test_guessed_paths_stay_within_the_guess_width(self, monkeypatch):
        # 60 brackets from 1e-300 to 1, each guessed right at its edge: the paths to
        # their ends take _MAX_STEPS - 4 steps each, more than one call holds
        rng = np.random.default_rng(10)
        tiny = 10.0 ** -rng.uniform(250.0, 300.0, 60)
        monkeypatch.setattr(roots, "_guess", lambda h, f, margin: tiny)
        calls = self._compare(lambda x, i: tiny[i] - x, np.full(60, 1e-300), np.ones(60))
        assert calls[0] == (60 * 15, 60)  # four tree levels, which give every guess
        assert all(values <= roots._GUESS_WIDTH for values, _ in calls[1:])
        assert sum(values for values, _ in calls[1:]) == 60 * (roots._MAX_STEPS - 4)
        assert len(calls) == 1 + -(-60 * (roots._MAX_STEPS - 4) // roots._GUESS_WIDTH)

    def test_a_boolean_predicate_takes_no_guess(self, monkeypatch):
        monkeypatch.setattr(roots, "_guess", None)  # never called
        rng = np.random.default_rng(11)
        edges, holds, fails, flip = self._draw(rng, 60)
        self._compare(lambda x, i: (x < edges[i]) == (flip[i] > 0), holds, fails)


class TestTreeValues:
    """What a bracket's tree gives, whatever the order of its nodes within a call: the
    midpoints of its own bisection, and margins on them from which ``_guess`` reaches
    a smooth edge and refuses a kinked one."""

    _compare = staticmethod(TestBisectPredicate._compare)

    @staticmethod
    def _guesses(monkeypatch):
        """Records (holds, fails, guesses) of every ``_guess`` call."""
        true, seen = roots._guess, []

        def recorded(holds, fails, margin):
            guess = true(holds, fails, margin)
            seen.append((holds.copy(), fails.copy(), guess.copy()))
            return guess

        monkeypatch.setattr(roots, "_guess", recorded)
        return seen

    @staticmethod
    def _draw(rng, size):
        """Brackets [h, 2h] in either order, and edges at fractions t of them: some in
        the first and some in the last sixteenth, the node intervals k = 0 and
        k = count of a four-level tree."""
        lows = 10.0 ** rng.uniform(-6.0, 1.0, size)
        t = rng.uniform(0.01, 0.99, size)
        t[:10], t[10:20] = rng.uniform(0.002, 0.06, 10), rng.uniform(0.94, 0.998, 10)
        flip = rng.random(size) < 0.5  # holds at 2h, above the edge
        holds, fails = np.where(flip, 2.0 * lows, lows), np.where(flip, lows, 2.0 * lows)
        return holds, fails, lows * (1.0 + t), np.where(flip, -1.0, 1.0)

    @pytest.mark.parametrize(
        "shape",
        [
            lambda x, edge: np.log(edge / x) * (1.0 + 0.3 * x),
            lambda x, edge: (edge - x) * (1.0 + x / edge + (x / edge) ** 2),  # a cubic
            lambda x, edge: edge - x,
        ],
        ids=["log", "cubic", "linear"],
    )
    def test_guesses_reach_smooth_edges(self, shape, monkeypatch):
        seen = self._guesses(monkeypatch)
        holds, fails, edges, sign = self._draw(np.random.default_rng(12), 60)
        self._compare(lambda x, i: sign[i] * shape(x, edges[i]), holds, fails)
        assert len(seen) == 1  # every bracket guesses from the first call's tree
        (h, f, guess), = seen
        assert h.tobytes() == holds.tobytes() and f.tobytes() == fails.tobytes()
        assert np.all(np.abs(guess - edges) <= 1e-8 * np.abs(f - h))

    def test_a_kink_in_the_stencil_drops_the_guess(self, monkeypatch):
        # kinked at 0.3 of [h, 2h], among the stencil's nodes, with the edge at 0.7
        seen = self._guesses(monkeypatch)
        rng = np.random.default_rng(13)
        lows = 10.0 ** rng.uniform(-6.0, 1.0, 60)
        edges, kinks = 1.7 * lows, 1.3 * lows
        self._compare(lambda x, i: edges[i] - x + 3.0 * np.maximum(0.0, kinks[i] - x), lows, 2.0 * lows)
        (h, f, guess), = seen
        assert h.size == 60 and np.all(np.isnan(guess))

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_a_tree_tests_the_midpoints_of_its_levels(self, depth, monkeypatch):
        # one bracket tests `depth` levels per call where the call holds 2^depth - 1 values
        monkeypatch.setattr(roots, "_CALL_WIDTH", (1 << depth) - 1)
        holds, fails = (0.1, 0.73) if depth % 2 else (2.9, 0.31)
        calls = []

        def pred(x, i):
            calls.append(x.copy())
            return x < 0.5

        roots.bisect_predicate(pred, holds, fails)
        brackets, want = [(holds, fails)], []
        for _ in range(depth):  # every bracket the one-level bisection reaches, level by level
            mids = [0.5 * (h + f) for h, f in brackets]
            want += mids
            brackets = [b for (h, f), m in zip(brackets, mids) for b in ((m, f), (h, m))]
        assert sorted(calls[0].tolist()) == sorted(want)


class TestFewPointBookkeeping:
    """Up to ``roots._FEW`` guessed paths keep their books on Python floats, more on
    numpy arrays.  Fed the same brackets, guesses and criterion outputs, both test the
    same values of the same elements, and settle the same brackets, steps left and
    dropped guesses, bit for bit."""

    LADDER = boundary._LADDER
    BRACKETS = {  # (holds, fails, steps left)
        "[0, MU_SEED]": (0.0, boundary.MU_SEED, roots._MAX_STEPS),
        "below the ceiling": (LADDER[-2], LADDER[-1], roots._MAX_STEPS),
        "holds above": (6e-5, 3e-5, roots._MAX_STEPS),  # as the T_min ladder's brackets
        "fails at 0": (1e-300, 0.0, roots._MAX_STEPS),
        "three steps left": (3e-5, 6e-5, 3),
        "nearly narrow": (1.0, 1.0 + 3e-6, roots._MAX_STEPS),
    }
    GUESSES = {  # from the bracket's holds and fails ends
        "inside": lambda h, f: h + 0.37 * (f - h),
        "far inside": lambda h, f: h + 1e-9 * (f - h),
        "at the holds end": lambda h, f: h,
        "at the fails end": lambda h, f: f,
        "at the first midpoint": lambda h, f: 0.5 * (h + f),
        "below": lambda h, f: 0.5 * min(h, f) - 1.0,
        "above": lambda h, f: 2.0 * max(h, f) + 1.0,
        "NaN": lambda h, f: math.nan,
        "inf": lambda h, f: math.inf,
        "0": lambda h, f: 0.0,
    }
    # the criterion's outputs at the tested values x, given whether each follows the
    # path (holds exactly on the holds side of its guess), its step and a random draw
    OUTPUTS = {
        "follows the guess": lambda follow, step, u: np.where(follow, 1.0, -1.0),
        "strays at every step": lambda follow, step, u: np.where(follow, -1.0, 1.0),
        "strays at the third step": lambda follow, step, u: np.where(follow != (step == 2), 2.0, -2.0),
        "random margins": lambda follow, step, u: np.where(u < 0.1, 0.0, np.where(u > 0.9, np.nan, u - 0.5)),
        "booleans": lambda follow, step, u: u < 0.5,
    }

    @classmethod
    def _table(cls, copies=1):
        """``copies`` brackets per bracket and guess of the tables, and a row left out of
        every path after each, so that settling must leave it alone."""
        rows = [(*cls.BRACKETS[b], cls.GUESSES[g](*cls.BRACKETS[b][:2])) for b in cls.BRACKETS for g in cls.GUESSES]
        rows = [row for pair in zip(rows * copies, [(5.0, 7.0, 9, 6.0)] * len(rows) * copies) for row in pair]
        holds, fails, left, guess = (np.array(column) for column in zip(*rows))
        return holds, fails, left.astype(int), guess, np.arange(0, len(rows), 2)

    @staticmethod
    def _outputs(rule, values, elements, holds, fails, guess, rng):
        below = (holds < fails)[elements]  # the holds end is the lower one
        follow = (values < guess[elements]) == below
        starts = np.r_[True, elements[1:] != elements[:-1]]
        step = np.arange(elements.size) - np.maximum.accumulate(np.where(starts, np.arange(elements.size), 0))
        return rule(follow, step, rng.random(elements.size))

    @pytest.mark.parametrize("rule", list(OUTPUTS))
    @pytest.mark.parametrize("take", ["all", "one", "two", "four", "beyond the guess width"])
    def test_paths_agree(self, take, rule, monkeypatch):
        # more than _GUESS_WIDTH / 4 paths take at most 3 steps each per call
        holds, fails, left, guess, rows = self._table(50 if take == "beyond the guess width" else 1)
        rng = np.random.default_rng([3, list(self.OUTPUTS).index(rule)])
        for chosen in {"all": [rows], "one": rows[:, None], "two": rows.reshape(-1, 2),
                       "four": rows[: rows.size // 4 * 4].reshape(-1, 4),
                       "beyond the guess width": [rows]}[take]:
            runs = []
            for few in (chosen.size, 0):  # the Python floats, then numpy
                monkeypatch.setattr(roots, "_FEW", few)
                state = [a.copy() for a in (holds, fails, left, guess)]
                runs.append((state, roots._path(*state, chosen)))
            (floats, (values, elements, settle)), (arrays, (values_np, elements_np, settle_np)) = runs
            assert values.tobytes() == values_np.tobytes() and elements.tolist() == elements_np.tolist()
            out = self._outputs(self.OUTPUTS[rule], values, elements, holds, fails, guess, rng)
            settle(out)
            settle_np(out)
            for got, want in zip(floats, arrays):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (chosen, rule)


class TestLadderSearch:
    """``ladder_search`` climbs many rungs per call, and its first call also tests the
    path of a guess; each point must end as a climb of one rung per call followed by
    the bisection of one level per call ends it, bit for bit, whatever the guess."""

    @pytest.mark.parametrize("ladder", ["mu", "T"])
    def test_points_match_the_one_rung_climb(self, ladder):
        rungs = {"mu": boundary._LADDER, "T": boundary._T_LADDER}[ladder]
        up = rungs[0] < rungs[-1]
        rng = np.random.default_rng([4, int(up)])
        for count in (1, 2, 3, 4, 7):
            # edges across the ladder and beyond both its ends, on rungs and next to them
            edges = 10.0 ** rng.uniform(-14.0, 4.0, count) if up else 10.0 ** rng.uniform(-10.0, 0.3, count)
            edges[::3] = rng.choice(rungs, edges[::3].size)
            edges[1::3] = np.nextafter(edges[1::3], 0.0)
            sign = 1.0 if up else -1.0  # holds below each edge, or above it
            tests = {
                "edges": lambda x, i: sign * (edges[i] - x),
                "booleans": lambda x, i: (x < edges[i]) == up,
                "non-monotone": lambda x, i: ((x.view(np.int64) >> 20) % 3 != i % 2) - 0.5,
            }
            guesses = {
                "none": None, "exact": edges, "1e-3 up": edges * (1.0 + 1e-3),
                "1e-7 down": edges * (1.0 - 1e-7), "NaN": np.full(count, np.nan),
                "inf": np.full(count, np.inf), "0": np.zeros(count),
            }
            for name, test in tests.items():
                want = ref.ladder_search_one_rung(test, rungs, count)
                for guess_name, guess in guesses.items():
                    got = roots.ladder_search(test, rungs, count, guess)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (count, name, guess_name)
