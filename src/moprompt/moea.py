"""Multi-objective selection machinery for two maximized objectives.

Pure functions over lists of FitnessPoint. Everything is deterministic, so
a selector called twice on the same input returns the same output. Each
path breaks ties its own way: the crowding cut and the cut of a later
front keep the lower index among equal keys; exact subset selection keeps
the lowest-index copy of a point, the first optimum its dynamic program
meets and the lowest-index leftovers as padding; greedy subset selection
drops the lowest index among equal contributions, so of two copies of a
point it keeps the higher-index one.

Non-dominated sorting and domination counting sweep the points by descending
f1 in O(n log n) comparisons; the count's sorted-list insertions also shift
O(n^2) slots in all, which loses to a tree count past 10,000-25,000 points.

The hypervolume routines are exact 2-D algorithms. Both objectives are
maximized and the reference point is the origin, which lies at or below
every FitnessPoint, so the hypervolume of a set is the area of the union of
the axis-aligned rectangles spanned by the origin and each point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter

from .domain import FitnessPoint


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of survivor selection over a candidate list.

    selected holds candidate indices in selection order, ranks and
    diagnostics are aligned with the full candidate list. The diagnostic is
    crowding distance for NSGA-II and per-front hypervolume contribution for
    the hypervolume-based selector.
    """

    selected: tuple[int, ...]
    ranks: tuple[int, ...]
    diagnostics: tuple[float, ...]


def nondominated_sort(points: list[FitnessPoint]) -> list[tuple[int, ...]]:
    """Partition points into fronts by non-dominated rank in O(n log n).

    Returns one tuple of point indices per front, in rank order: the front
    at position 0 is the Pareto front.

    Sort-and-sweep for two objectives (Jensen 2003): points are visited by
    descending f1, then descending f2, so every point that can dominate the
    current one has been visited, and among visited points q dominates p
    exactly when (q.f2, q.f1) > (p.f2, p.f1) lexicographically. Each front
    keeps the largest such key it holds; the keys strictly decrease with
    rank, so a binary search finds the first front holding no dominator,
    which is the point's front. Exact duplicates do not dominate each other
    and share a front. Indices within a front stay in ascending input
    order. Empty input gives an empty partition.
    """
    order = sorted(range(len(points)), key=lambda i: (-points[i].f1, -points[i].f2))
    # front r's largest (f2, f1) key, negated so that the list ascends
    front_keys: list[tuple[float, float]] = []
    members: list[list[int]] = []
    for i in order:
        key = (-points[i].f2, -points[i].f1)
        rank = bisect_left(front_keys, key)
        if rank == len(front_keys):
            front_keys.append(key)
            members.append([i])
        else:
            front_keys[rank] = key
            members[rank].append(i)
    return [tuple(sorted(m)) for m in members]


def _domination_counts(points: list[FitnessPoint]) -> list[int]:
    """How many points dominate each point.

    One pass in nondominated_sort's visiting order keeps the visited (f2, f1)
    keys in a sorted list. By the same invariant, a visited point dominates p
    exactly when its key is larger, and no later point can, so p's count is
    the number of visited keys above p's; bisect_right leaves out p's copies.
    That is O(n log n) comparisons, but each insertion shifts the larger keys
    a slot, so a Fenwick tree wins past about 25,000 random points (10,000
    in a dominance chain, where each key goes first).
    """
    visited: list[tuple[float, float]] = []
    counts = [0] * len(points)
    for i in sorted(range(len(points)), key=lambda i: (-points[i].f1, -points[i].f2)):
        key = (points[i].f2, points[i].f1)
        counts[i] = len(visited) - bisect_right(visited, key)
        insort(visited, key)
    return counts


def crowding_distance(points: list[FitnessPoint]) -> list[float]:
    """Crowding distance of each point within one front.

    Boundary points of each objective get +inf. Interior points accumulate
    (neighbor above - neighbor below) / (max - min) per objective; an
    objective with zero range contributes nothing.
    """
    n = len(points)
    if n <= 2:
        return [float("inf")] * n
    distance = [0.0] * n
    for values in ([p.f1 for p in points], [p.f2 for p in points]):
        order = sorted(range(n), key=lambda i: (values[i], i))
        distance[order[0]] = float("inf")
        distance[order[-1]] = float("inf")
        spread = values[order[-1]] - values[order[0]]
        if spread == 0.0:
            continue
        for position in range(1, n - 1):
            i = order[position]
            below = values[order[position - 1]]
            above = values[order[position + 1]]
            distance[i] += (above - below) / spread
    return distance


def hypervolume_2d(points: list[FitnessPoint]) -> float:
    """Exact hypervolume of a point set with respect to the origin.

    The origin lies at or below every FitnessPoint. Sweep over points sorted
    by descending f1, adding the horizontal strip each point contributes
    above the best f2 seen so far. The sort is stable, so points of equal
    f1 are swept in input order, which can change the last bit of the sum.
    O(n log n); the empty set has hypervolume 0.
    """
    area = 0.0
    best_f2 = 0.0
    for p in sorted(points, key=attrgetter("f1"), reverse=True):
        if p.f2 > best_f2:
            area += p.f1 * (p.f2 - best_f2)
            best_f2 = p.f2
    return area


def _staircase(
    points: list[FitnessPoint],
) -> tuple[list[int], set[int]]:
    """Indices of the maximal points, one per distinct coordinate, ordered by
    descending f1, plus the set of positions whose coordinate occurs more
    than once in the input."""
    order = sorted(range(len(points)), key=lambda i: (-points[i].f1, -points[i].f2, i))
    stair: list[int] = []
    duplicated: set[int] = set()
    best_f2 = float("-inf")
    for i in order:
        p = points[i]
        if p.f2 > best_f2:
            stair.append(i)
            best_f2 = p.f2
        elif p.f2 == best_f2 and p.f1 == points[stair[-1]].f1:  # a copy of the last step
            duplicated.add(len(stair) - 1)
    return stair, duplicated


def hv_contributions(points: list[FitnessPoint]) -> list[float]:
    """Exclusive hypervolume contribution of each point.

    For a mutually nondominated set this is hv(S) - hv(S without i). Every
    copy of a duplicated point contributes 0 (removing one copy leaves the
    other), and dominated points are assigned 0 outright rather than the
    area they would expose. Computed from the sorted staircase of maximal
    points in O(n log n) total.
    """
    contributions = [0.0] * len(points)
    stair, duplicated = _staircase(points)
    for position, index in enumerate(stair):
        if position in duplicated:
            continue
        p = points[index]
        right_f1 = points[stair[position + 1]].f1 if position + 1 < len(stair) else 0.0
        below_f2 = points[stair[position - 1]].f2 if position > 0 else 0.0
        contributions[index] = (p.f1 - right_f1) * (p.f2 - below_f2)
    return contributions


def hv_subset_select(points: list[FitnessPoint], k: int, mode: str = "greedy") -> list[int]:
    """Choose k of the given points to (approximately) maximize hypervolume
    with respect to the origin.

    greedy mode repeatedly discards a point of minimal exclusive contribution
    (lowest index among ties) until k remain, in O((n-k)·n log n). exact mode
    solves the 2-D subset selection problem optimally with a dynamic program
    over the staircase of the m distinct maximal points, in O(k·(m-k+1)²)
    after the O(n log n) staircase, padding with lowest-index leftovers when
    k exceeds m. Returns ascending indices into the input list.
    """
    n = len(points)
    if k < 1:
        raise ValueError(f"subset size must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"cannot select {k} of {n} points")
    if mode == "greedy":
        return _greedy_subset(points, k)
    if mode == "exact":
        return _exact_subset(points, k)
    raise ValueError(f"unknown subset selection mode: {mode!r}")


def _greedy_subset(points: list[FitnessPoint], k: int) -> list[int]:
    remaining = list(range(len(points)))
    while len(remaining) > k:
        contribs = hv_contributions([points[i] for i in remaining])
        drop = min(range(len(remaining)), key=lambda t: (contribs[t], remaining[t]))
        remaining.pop(drop)
    return remaining


def _exact_subset(points: list[FitnessPoint], k: int) -> list[int]:
    # the staircase holds one index per distinct maximal coordinate, lowest first
    stair, _ = _staircase(points)
    m = len(stair)
    if k >= m:
        chosen = set(stair)
        for index in range(len(points)):
            if len(chosen) == k:
                break
            chosen.add(index)
        return sorted(chosen)
    xs = [points[i].f1 for i in stair]
    ys = [points[i].f2 for i in stair]
    # area[t]: max area of j staircase points, the last being t. Layer j needs
    # only t in [j-1, m-(k-j)), where j-1 points fit before t and k-j after
    # it; t runs downward, so area[u] for u < t still holds layer j-1
    area = [x * y for x, y in zip(xs, ys)]
    links: list[list[int]] = []  # links[j-2][t-(j-1)]: the point before t in layer j
    for j in range(2, k + 1):
        link = [0] * (m - k + 1)
        for t in reversed(range(j - 1, m - k + j)):
            best = float("-inf")
            for u in range(j - 2, t):
                value = area[u] + xs[t] * (ys[t] - ys[u])
                if value > best:
                    best, link[t - j + 1] = value, u
            area[t] = best
        links.append(link)
    chosen = [max(range(k - 1, m), key=area.__getitem__)]  # the first best end
    for j, link in zip(range(k, 1, -1), reversed(links)):
        chosen.append(link[chosen[-1] - j + 1])
    return sorted(stair[t] for t in chosen)


def _select_by_fronts(
    candidates: list[FitnessPoint], mu: int, diagnose, pick_overflow
) -> SelectionOutcome:
    """The survivor selection both selectors share.

    Sorts the candidates into fronts, records each one's rank and its
    diagnose() value within its front, then takes whole fronts in rank
    order. From the front that does not fit, pick_overflow(rank, front,
    need, diagnostics) chooses the need indices that fill mu.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if len(candidates) < mu:
        raise ValueError(f"need at least {mu} candidates, got {len(candidates)}")
    fronts = nondominated_sort(candidates)
    ranks = [0] * len(candidates)
    diagnostics = [0.0] * len(candidates)
    for rank, front in enumerate(fronts):
        values = diagnose([candidates[i] for i in front])
        for i, value in zip(front, values):
            ranks[i] = rank
            diagnostics[i] = value
    selected: list[int] = []
    for rank, front in enumerate(fronts):
        need = mu - len(selected)
        if need == 0:
            break
        if len(front) > need:
            selected.extend(pick_overflow(rank, front, need, diagnostics))
            break
        selected.extend(front)
    return SelectionOutcome(tuple(selected), tuple(ranks), tuple(diagnostics))


def nsga2_select(candidates: list[FitnessPoint], mu: int) -> SelectionOutcome:
    """NSGA-II survivor selection: whole fronts in rank order, the
    overflowing front truncated by descending crowding distance (ties toward
    the lower index)."""

    def by_crowding(
        rank: int, front: tuple[int, ...], need: int, crowding: list[float]
    ) -> list[int]:
        return sorted(front, key=lambda i: (-crowding[i], i))[:need]

    return _select_by_fronts(candidates, mu, crowding_distance, by_crowding)


def sms_emoa_select(
    candidates: list[FitnessPoint],
    mu: int,
    mode: str = "greedy",
) -> SelectionOutcome:
    """Hypervolume-based survivor selection.

    When the Pareto front alone exceeds mu, the survivors are a
    hypervolume-maximizing subset of that front (greedy or exact per mode).
    Otherwise whole fronts are taken in rank order and the overflowing front
    is ordered by domination count ascending, then exclusive hypervolume
    contribution descending, then lower index. The sort, the per-front
    contributions and the domination counts are sweeps, O(n log n) in the
    candidate count; the subset selection costs what its mode costs.
    """

    def by_hypervolume(
        rank: int, front: tuple[int, ...], need: int, contribution: list[float]
    ) -> list[int]:
        if rank == 0:  # only when the Pareto front alone exceeds mu
            local_pick = hv_subset_select([candidates[i] for i in front], need, mode)
            return [front[t] for t in local_pick]
        domination_count = _domination_counts(candidates)
        return sorted(front, key=lambda i: (domination_count[i], -contribution[i], i))[:need]

    return _select_by_fronts(candidates, mu, hv_contributions, by_hypervolume)
