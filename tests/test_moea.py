import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moprompt.domain import FitnessPoint
from moprompt.moea import (
    _domination_counts,
    crowding_distance,
    hv_contributions,
    hv_subset_select,
    hypervolume_2d,
    nondominated_sort,
    nsga2_select,
    sms_emoa_select,
)
from oracles import (
    best_subset_oracle,
    contributions_oracle,
    crowding_oracle,
    domination_count_oracle,
    dominates,
    dominates_oracle,
    hypervolume_oracle,
    sort_oracle,
)

ORIGIN = (0.0, 0.0)


def points_of(*coords):
    return [FitnessPoint(a, b) for a, b in coords]


def random_points(rng, n, grid=None):
    out = []
    for _ in range(n):
        if grid:
            out.append(FitnessPoint(rng.randrange(grid) / grid, rng.randrange(grid) / grid))
        else:
            out.append(FitnessPoint(rng.random(), rng.random()))
    return out


point_strategy = st.builds(
    FitnessPoint,
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def tied_points(draw, max_size=60):
    """Points on a dyadic grid (so every area is exact in floating point),
    with exact duplicates and runs sharing f1 or f2 mixed in, shuffled."""
    grid = draw(st.sampled_from([1, 2, 4, 8, 16]))
    coord = st.integers(0, grid)
    cells = draw(st.lists(st.tuples(coord, coord), max_size=max_size))
    for shared_axis, shared, others in draw(
        st.lists(st.tuples(st.sampled_from((0, 1)), coord, st.lists(coord, max_size=8)),
                 max_size=3)
    ):
        for other in others:
            cells.append((shared, other) if shared_axis == 0 else (other, shared))
    for _ in range(draw(st.integers(0, 3))):
        if cells:
            cells.append(cells[draw(st.integers(0, len(cells) - 1))])
    cells = draw(st.permutations(cells[:max_size]))
    return [FitnessPoint(a / grid, b / grid) for a, b in cells]


# dominance


def test_dominates_basics():
    a, b = FitnessPoint(0.5, 0.5), FitnessPoint(0.4, 0.5)
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, a)
    assert not dominates(FitnessPoint(0.6, 0.2), FitnessPoint(0.2, 0.6))


@given(point_strategy, point_strategy)
def test_dominates_matches_oracle_and_is_asymmetric(a, b):
    assert dominates(a, b) == dominates_oracle(a, b)
    assert not (dominates(a, b) and dominates(b, a))


@given(point_strategy)
def test_dominates_irreflexive(p):
    assert not dominates(p, p)


# non-dominated sorting


def test_sort_single_point():
    fronts = nondominated_sort(points_of((0.3, 0.3)))
    assert len(fronts) == 1
    assert fronts[0].indices == (0,)
    assert fronts[0].rank == 0


def test_sort_chain():
    pts = points_of((0.9, 0.9), (0.5, 0.5), (0.1, 0.1))
    fronts = nondominated_sort(pts)
    assert [f.indices for f in fronts] == [(0,), (1,), (2,)]


def test_sort_duplicates_share_a_front():
    pts = points_of((0.5, 0.5), (0.5, 0.5), (0.2, 0.2))
    fronts = nondominated_sort(pts)
    assert fronts[0].indices == (0, 1)
    assert fronts[1].indices == (2,)


def test_sort_empty():
    assert nondominated_sort([]) == []


def test_sort_matches_oracle_on_random_sets():
    rng = random.Random(7)
    for trial in range(60):
        pts = random_points(rng, rng.randrange(1, 60), grid=8 if trial % 2 else None)
        fronts = [list(f.indices) for f in nondominated_sort(pts)]
        assert fronts == sort_oracle(pts)


@settings(deadline=None)
@given(tied_points())
def test_sort_matches_oracle_with_ties_and_duplicates(pts):
    assert [list(f.indices) for f in nondominated_sort(pts)] == sort_oracle(pts)


@settings(deadline=None)
@given(tied_points())
def test_domination_counts_match_oracle(pts):
    assert _domination_counts(pts) == domination_count_oracle(pts)


def test_sort_partitions_input():
    rng = random.Random(3)
    pts = random_points(rng, 40)
    fronts = nondominated_sort(pts)
    seen = [i for front in fronts for i in front.indices]
    assert sorted(seen) == list(range(40))
    assert [front.rank for front in fronts] == list(range(len(fronts)))


# crowding distance


def test_crowding_three_point_front():
    pts = points_of((0.0, 1.0), (0.5, 0.5), (1.0, 0.0))
    assert crowding_distance(pts) == [math.inf, 2.0, math.inf]


def test_crowding_small_fronts_are_infinite():
    assert crowding_distance([]) == []
    assert crowding_distance(points_of((0.3, 0.4))) == [math.inf]
    assert crowding_distance(points_of((0.3, 0.4), (0.4, 0.3))) == [math.inf, math.inf]


def test_crowding_zero_range_objective():
    pts = points_of((0.0, 0.5), (0.4, 0.5), (1.0, 0.5))
    distances = crowding_distance(pts)
    assert distances[0] == math.inf and distances[2] == math.inf
    assert distances[1] == pytest.approx(1.0)


def test_crowding_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        pts = random_points(rng, rng.randrange(3, 12))
        got = crowding_distance(pts)
        want = crowding_oracle(pts)
        for g, w in zip(got, want):
            if math.isinf(w):
                assert math.isinf(g)
            else:
                assert g == pytest.approx(w)


# hypervolume


def test_hv_empty_and_single():
    assert hypervolume_2d([], ORIGIN) == 0.0
    assert hypervolume_2d(points_of((0.8, 0.5)), ORIGIN) == pytest.approx(0.40, abs=1e-15)


def test_hv_three_point_example():
    pts = points_of((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
    assert hypervolume_2d(pts, ORIGIN) == pytest.approx(0.25, abs=1e-15)


def test_hv_diagonal_ten_points():
    pts = [FitnessPoint(k / 9, 1 - k / 9) for k in range(10)]
    assert hypervolume_2d(pts, ORIGIN) == pytest.approx(4 / 9, abs=1e-12)


def test_hv_rejects_points_below_reference():
    with pytest.raises(ValueError):
        hypervolume_2d(points_of((0.4, 0.4)), (0.5, 0.0))
    with pytest.raises(ValueError):
        hypervolume_2d(points_of((0.4, 0.4)), (0.0, 0.5))


def test_hv_matches_oracle_on_random_sets():
    rng = random.Random(23)
    for trial in range(60):
        pts = random_points(rng, rng.randrange(1, 30), grid=6 if trial % 3 == 0 else None)
        assert hypervolume_2d(pts, ORIGIN) == pytest.approx(
            hypervolume_oracle(pts, ORIGIN), abs=1e-12
        )


@given(st.lists(point_strategy, max_size=30))
def test_hv_permutation_invariant(pts):
    shuffled = list(pts)
    random.Random(0).shuffle(shuffled)
    assert hypervolume_2d(pts, ORIGIN) == pytest.approx(
        hypervolume_2d(shuffled, ORIGIN), abs=1e-12
    )


@given(st.lists(point_strategy, min_size=1, max_size=30), point_strategy)
def test_hv_monotone_under_addition(pts, extra):
    base = hypervolume_2d(pts, ORIGIN)
    assert hypervolume_2d(pts + [extra], ORIGIN) >= base - 1e-12


@given(st.lists(point_strategy, min_size=2, max_size=20))
def test_hv_ignores_dominated_points(pts):
    fronts = nondominated_sort(pts)
    front0 = [pts[i] for i in fronts[0].indices]
    assert hypervolume_2d(pts, ORIGIN) == pytest.approx(
        hypervolume_2d(front0, ORIGIN), abs=1e-12
    )


@given(st.lists(point_strategy, min_size=1, max_size=15), st.floats(0.1, 1.0))
def test_hv_scale_covariance(pts, scale):
    scaled = [FitnessPoint(p.f1 * scale, p.f2 * scale) for p in pts]
    assert hypervolume_2d(scaled, ORIGIN) == pytest.approx(
        hypervolume_2d(pts, ORIGIN) * scale * scale, rel=1e-9, abs=1e-12
    )


# hypervolume contributions


def test_contributions_example():
    pts = points_of((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
    assert hv_contributions(pts, ORIGIN) == pytest.approx([0.0, 0.25, 0.0], abs=1e-15)


def test_contributions_duplicates_are_zero():
    pts = points_of((0.5, 0.5), (0.5, 0.5), (0.8, 0.1))
    contribs = hv_contributions(pts, ORIGIN)
    assert contribs[0] == 0.0 and contribs[1] == 0.0
    assert contribs[2] > 0.0


def test_contributions_dominated_are_zero():
    pts = points_of((0.9, 0.9), (0.2, 0.2), (0.5, 0.5))
    contribs = hv_contributions(pts, ORIGIN)
    assert contribs[1] == 0.0 and contribs[2] == 0.0
    assert contribs[0] == pytest.approx(0.81)


def test_contributions_match_leave_one_out_oracle():
    # leave-one-out equivalence is claimed for nondominated inputs only, so
    # reduce each random set to its first front (duplicates survive that)
    rng = random.Random(31)
    for trial in range(30):
        raw = random_points(rng, rng.randrange(1, 15), grid=7 if trial % 2 else None)
        pts = [raw[i] for i in sort_oracle(raw)[0]]
        got = hv_contributions(pts, ORIGIN)
        want = contributions_oracle(pts, ORIGIN)
        assert got == pytest.approx(want, abs=1e-12)


@given(st.lists(point_strategy, min_size=1, max_size=25))
def test_contributions_sum_bounded_by_hv(pts):
    assert sum(hv_contributions(pts, ORIGIN)) <= hypervolume_2d(pts, ORIGIN) + 1e-12


# subset selection


def test_subset_select_validates_k():
    pts = points_of((0.5, 0.5), (0.6, 0.2))
    with pytest.raises(ValueError):
        hv_subset_select(pts, 0, ORIGIN)
    with pytest.raises(ValueError):
        hv_subset_select(pts, 3, ORIGIN)
    with pytest.raises(ValueError):
        hv_subset_select(pts, 1, ORIGIN, mode="fancy")


@pytest.mark.parametrize("mode", ["greedy", "exact"])
@pytest.mark.parametrize("k", [0, -1, -3])
def test_subset_select_rejects_sizes_below_one(mode, k):
    pts = points_of((0.5, 0.5), (0.6, 0.2), (0.2, 0.6))
    with pytest.raises(ValueError, match=f"^subset size must be at least 1, got {k}$"):
        hv_subset_select(pts, k, ORIGIN, mode)


def test_subset_select_k_equals_n():
    pts = points_of((0.5, 0.5), (0.6, 0.2))
    assert hv_subset_select(pts, 2, ORIGIN, "greedy") == [0, 1]
    assert hv_subset_select(pts, 2, ORIGIN, "exact") == [0, 1]


def test_subset_exact_four_point_example():
    pts = points_of((1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (0.4, 0.4))
    assert hv_subset_select(pts, 3, ORIGIN, "exact") == [0, 1, 2]


def test_subset_exact_matches_enumeration():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randrange(2, 11)
        k = rng.randrange(1, min(n, 5) + 1)
        pts = random_points(rng, n, grid=9 if rng.random() < 0.5 else None)
        selected = hv_subset_select(pts, k, ORIGIN, "exact")
        got = hypervolume_2d([pts[i] for i in selected], ORIGIN)
        want, _ = best_subset_oracle(pts, k, ORIGIN)
        assert got == pytest.approx(want, abs=1e-12)


def test_subset_exact_at_least_greedy():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(2, 20)
        k = rng.randrange(1, n + 1)
        pts = random_points(rng, n)
        greedy = hypervolume_2d(
            [pts[i] for i in hv_subset_select(pts, k, ORIGIN, "greedy")], ORIGIN
        )
        exact = hypervolume_2d(
            [pts[i] for i in hv_subset_select(pts, k, ORIGIN, "exact")], ORIGIN
        )
        assert exact >= greedy - 1e-12


def test_subset_select_deterministic():
    rng = random.Random(53)
    pts = random_points(rng, 15)
    for mode in ("greedy", "exact"):
        first = hv_subset_select(pts, 6, ORIGIN, mode)
        assert first == hv_subset_select(pts, 6, ORIGIN, mode)


def test_subset_greedy_drops_duplicates_first():
    pts = points_of((0.5, 0.5), (0.5, 0.5), (0.9, 0.2), (0.2, 0.9))
    kept = hv_subset_select(pts, 3, ORIGIN, "greedy")
    # one of the duplicate pair must be gone
    assert kept.count(0) + kept.count(1) == 1


# NSGA-II selection


def test_nsga2_requires_enough_candidates():
    with pytest.raises(ValueError):
        nsga2_select(points_of((0.5, 0.5)), 2)


def test_nsga2_whole_fronts_then_crowding():
    # front 0: three corners; front 1: three mutually nondominated points,
    # of which the two boundary ones carry infinite crowding
    pts = points_of(
        (1.0, 0.0), (0.5, 0.5), (0.0, 1.0),
        (0.4, 0.4), (0.45, 0.1), (0.1, 0.45),
    )
    outcome = nsga2_select(pts, 5)
    assert outcome.selected == (0, 1, 2, 4, 5)
    assert outcome.ranks == (0, 0, 0, 1, 1, 1)


def test_nsga2_truncates_by_crowding():
    # a single front of 5, keep 3: boundary points always survive
    pts = points_of((0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0))
    outcome = nsga2_select(pts, 3)
    assert 0 in outcome.selected and 4 in outcome.selected
    assert len(outcome.selected) == 3
    assert len(set(outcome.selected)) == 3


def test_nsga2_crowding_tie_prefers_lower_index():
    # four symmetric points on a line: the two interior ones tie on crowding
    pts = points_of((0.0, 1.0), (1 / 3, 2 / 3), (2 / 3, 1 / 3), (1.0, 0.0))
    outcome = nsga2_select(pts, 3)
    assert outcome.selected == (0, 3, 1)


def test_nsga2_keeps_front0_when_it_fits():
    rng = random.Random(61)
    for _ in range(30):
        pts = random_points(rng, 20)
        mu = 10
        fronts = nondominated_sort(pts)
        outcome = nsga2_select(pts, mu)
        if len(fronts[0]) <= mu:
            assert set(fronts[0].indices) <= set(outcome.selected)
        assert len(outcome.selected) == mu
        assert len(set(outcome.selected)) == mu


def test_nsga2_deterministic():
    rng = random.Random(67)
    pts = random_points(rng, 30)
    assert nsga2_select(pts, 10) == nsga2_select(pts, 10)


# hypervolume-based selection


def test_sms_requires_enough_candidates():
    with pytest.raises(ValueError):
        sms_emoa_select(points_of((0.5, 0.5)), 2)


def test_sms_overflowing_front0_uses_subset_selection():
    # five nondominated points, keep 3; the extremes plus the bulge win
    pts = points_of((1.0, 0.0), (0.8, 0.55), (0.55, 0.8), (0.0, 1.0), (0.3, 0.9))
    outcome = sms_emoa_select(pts, 3, ORIGIN, "exact")
    got = hypervolume_2d([pts[i] for i in outcome.selected], ORIGIN)
    want, _ = best_subset_oracle(pts, 3, ORIGIN)
    assert got == pytest.approx(want, abs=1e-12)
    assert len(outcome.selected) == 3


def test_sms_fronts_fit_then_domination_count_order():
    # front 0 has two members; front 1 has three, keep two of them.
    # (0.45, 0.45) is dominated by both front-0 points, the other two by one
    # each, so domination count drops it; the remaining contribution tie
    # falls back to the lower index.
    pts = points_of(
        (0.9, 0.5), (0.5, 0.9),
        (0.45, 0.45), (0.58, 0.38), (0.38, 0.58), (0.40, 0.40),
    )
    outcome = sms_emoa_select(pts, 4, ORIGIN, "greedy")
    assert outcome.selected == (0, 1, 3, 4)
    assert outcome.ranks == (0, 0, 1, 1, 1, 2)


def test_sms_keeps_front0_when_it_fits():
    rng = random.Random(71)
    for mode in ("greedy", "exact"):
        for _ in range(20):
            pts = random_points(rng, 20)
            mu = 10
            fronts = nondominated_sort(pts)
            outcome = sms_emoa_select(pts, mu, ORIGIN, mode)
            if len(fronts[0]) <= mu:
                assert set(fronts[0].indices) <= set(outcome.selected)
            assert len(outcome.selected) == mu


def test_sms_deterministic():
    rng = random.Random(73)
    pts = random_points(rng, 30)
    for mode in ("greedy", "exact"):
        assert sms_emoa_select(pts, 10, ORIGIN, mode) == sms_emoa_select(pts, 10, ORIGIN, mode)


def test_selectors_never_prefer_dominated_over_dominator():
    # a survivor set should keep every front-0 candidate when it fits;
    # checked across both selectors on mixed random pools
    rng = random.Random(79)
    for _ in range(20):
        pts = random_points(rng, 30, grid=10)
        fronts = nondominated_sort(pts)
        mu = 10
        for select in (
            lambda p: nsga2_select(p, mu),
            lambda p: sms_emoa_select(p, mu, ORIGIN, "greedy"),
            lambda p: sms_emoa_select(p, mu, ORIGIN, "exact"),
        ):
            outcome = select(pts)
            chosen = set(outcome.selected)
            if len(fronts[0]) <= mu:
                assert set(fronts[0].indices) <= chosen


@settings(deadline=None)
@given(st.lists(point_strategy, min_size=1, max_size=30), st.floats(0.05, 1.0))
@example(points_of((0.0, 0.0), (0.0, 5e-324)), 0.5)
def test_scale_preserves_dominance_relations(pts, scale):
    # multiplication by c > 0 is order-preserving per coordinate, so the
    # front structure is exactly unchanged, provided rounding keeps distinct
    # values distinct: 5e-324 * 0.5 == 0.0 ties two coordinates, which
    # rightly merges their fronts
    for axis in ("f1", "f2"):
        values = {getattr(p, axis) for p in pts}
        assume(len({v * scale for v in values}) == len(values))
    scaled = [FitnessPoint(p.f1 * scale, p.f2 * scale) for p in pts]
    base_fronts = [f.indices for f in nondominated_sort(pts)]
    scaled_fronts = [f.indices for f in nondominated_sort(scaled)]
    assert base_fronts == scaled_fronts


def sms_fill_oracle(points, mu, ref):
    """Survivors when front 0 fits in mu, built from the oracles: whole
    fronts in rank order, the overflowing front by domination count, then
    contribution descending, then index."""
    counts = domination_count_oracle(points)
    selected = []
    for front in sort_oracle(points):
        if len(selected) + len(front) <= mu:
            selected.extend(front)
        else:
            contribution = dict(
                zip(front, contributions_oracle([points[i] for i in front], ref))
            )
            order = sorted(front, key=lambda i: (counts[i], -contribution[i], i))
            selected.extend(order[: mu - len(selected)])
        if len(selected) == mu:
            break
    return tuple(selected)


@settings(deadline=None)
@given(tied_points(), st.data())
def test_sms_fill_matches_oracle_selector(pts, data):
    assume(pts)
    mu = data.draw(st.integers(1, len(pts)))
    assume(len(sort_oracle(pts)[0]) <= mu)
    for mode in ("greedy", "exact"):
        outcome = sms_emoa_select(pts, mu, ORIGIN, mode)
        assert outcome.selected == sms_fill_oracle(pts, mu, ORIGIN)
