"""Multi-objective selection machinery for two maximized objectives.

Pure functions over lists of FitnessPoint. Everything is deterministic:
every tie anywhere is broken toward the lowest candidate index, so a
selector called twice on the same input returns the same output.

Non-dominated sorting and domination counting are exact O(n log n) sweeps
over the points in descending f1 order, so survivor selection scales as
O(n log n) in the candidate count up to the subset selection that runs
when the Pareto front alone overflows.

The hypervolume routines are exact 2-D algorithms. With both objectives
maximized and a reference point at or below every point, the hypervolume of
a set is the area of the union of the axis-aligned rectangles spanned by the
reference point and each point.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from .domain import FitnessPoint

DEFAULT_REFERENCE = (0.0, 0.0)


@dataclass(frozen=True)
class Front:
    """One layer of the non-dominated partition. rank 0 is the Pareto front."""

    rank: int
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


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


def nondominated_sort(points: list[FitnessPoint]) -> list[Front]:
    """Partition points into fronts by non-dominated rank in O(n log n).

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
    return [Front(rank=rank, indices=tuple(sorted(m))) for rank, m in enumerate(members)]


def _domination_counts(points: list[FitnessPoint]) -> list[int]:
    """How many points dominate each point, in O(n log n).

    Sweeps groups of equal f1 in descending order over a Fenwick tree of f2
    ranks (rank 1 is the largest f2). A group is inserted before it is
    queried, so a point's count is the number of points inserted so far
    with f2 at least its own, minus the copies of its exact coordinate
    (itself included), which do not dominate it.
    """
    f2_rank = {v: r for r, v in enumerate(sorted({p.f2 for p in points}, reverse=True), 1)}
    tree = [0] * (len(f2_rank) + 1)
    copies = Counter((p.f1, p.f2) for p in points)
    counts = [0] * len(points)
    by_f1 = sorted(range(len(points)), key=lambda i: -points[i].f1)
    for _, group in groupby(by_f1, key=lambda i: points[i].f1):
        group = list(group)
        for i in group:
            r = f2_rank[points[i].f2]
            while r < len(tree):
                tree[r] += 1
                r += r & -r
        for i in group:
            r = f2_rank[points[i].f2]
            at_least = 0
            while r > 0:
                at_least += tree[r]
                r -= r & -r
            counts[i] = at_least - copies[(points[i].f1, points[i].f2)]
    return counts


def crowding_distance(points: list[FitnessPoint]) -> list[float]:
    """Crowding distance of each point within one front.

    Boundary points of each objective get +inf. Interior points accumulate
    (neighbor above - neighbor below) / (max - min) per objective; an
    objective with zero range contributes nothing.
    """
    n = len(points)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    distance = [0.0] * n
    for objective in range(2):
        values = [p.as_tuple()[objective] for p in points]
        order = sorted(range(n), key=lambda i: (values[i], i))
        distance[order[0]] = float("inf")
        distance[order[-1]] = float("inf")
        spread = values[order[-1]] - values[order[0]]
        if spread == 0.0:
            continue
        for position in range(1, n - 1):
            i = order[position]
            if distance[i] == float("inf"):
                continue
            below = values[order[position - 1]]
            above = values[order[position + 1]]
            distance[i] += (above - below) / spread
    return distance


def _check_reference(points: list[FitnessPoint], ref: tuple[float, float]) -> None:
    for i, p in enumerate(points):
        if p.f1 < ref[0] or p.f2 < ref[1]:
            raise ValueError(
                f"point {i} at ({p.f1}, {p.f2}) lies below reference {ref}"
            )


def hypervolume_2d(points: list[FitnessPoint], ref: tuple[float, float]) -> float:
    """Exact hypervolume of a point set with respect to a reference point.

    Sweep over points sorted by descending f1, adding the horizontal strip
    each point contributes above the best f2 seen so far. O(n log n); the
    empty set has hypervolume 0. Points below the reference in either
    coordinate are an error.
    """
    _check_reference(points, ref)
    if not points:
        return 0.0
    area = 0.0
    best_f2 = ref[1]
    for f1, f2 in sorted(((p.f1, p.f2) for p in points), key=lambda c: -c[0]):
        if f2 > best_f2:
            area += (f1 - ref[0]) * (f2 - best_f2)
            best_f2 = f2
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
        elif stair:
            top = points[stair[-1]]
            if p.f1 == top.f1 and p.f2 == top.f2:
                duplicated.add(len(stair) - 1)
    return stair, duplicated


def hv_contributions(points: list[FitnessPoint], ref: tuple[float, float]) -> list[float]:
    """Exclusive hypervolume contribution of each point.

    For a mutually nondominated set this is hv(S) - hv(S without i). Every
    copy of a duplicated point contributes 0 (removing one copy leaves the
    other), and dominated points are assigned 0 outright rather than the
    area they would expose. Computed from the sorted staircase of maximal
    points in O(n log n) total.
    """
    _check_reference(points, ref)
    n = len(points)
    contributions = [0.0] * n
    stair, duplicated = _staircase(points)
    for position, index in enumerate(stair):
        if position in duplicated:
            continue
        p = points[index]
        right_f1 = points[stair[position + 1]].f1 if position + 1 < len(stair) else ref[0]
        below_f2 = points[stair[position - 1]].f2 if position > 0 else ref[1]
        contributions[index] = (p.f1 - right_f1) * (p.f2 - below_f2)
    return contributions


def hv_subset_select(
    points: list[FitnessPoint],
    k: int,
    ref: tuple[float, float],
    mode: str = "greedy",
) -> list[int]:
    """Choose k of the given points to (approximately) maximize hypervolume.

    greedy mode repeatedly discards a point of minimal exclusive contribution
    (lowest index among ties) until k remain. exact mode solves the 2-D
    subset selection problem optimally with a dynamic program over the
    staircase of maximal points, padding with lowest-index leftovers when k
    exceeds the number of maximal points. Returns ascending indices into the
    input list.
    """
    n = len(points)
    if k < 1:
        raise ValueError(f"subset size must be at least 1, got {k}")
    if k > n:
        raise ValueError(f"cannot select {k} of {n} points")
    _check_reference(points, ref)
    if k == n:
        return list(range(n))
    if mode == "greedy":
        return _greedy_subset(points, k, ref)
    if mode == "exact":
        return _exact_subset(points, k, ref)
    raise ValueError(f"unknown subset selection mode: {mode!r}")


def _greedy_subset(points: list[FitnessPoint], k: int, ref: tuple[float, float]) -> list[int]:
    remaining = list(range(len(points)))
    while len(remaining) > k:
        contribs = hv_contributions([points[i] for i in remaining], ref)
        drop = min(range(len(remaining)), key=lambda t: (contribs[t], remaining[t]))
        remaining.pop(drop)
    return remaining


def _exact_subset(points: list[FitnessPoint], k: int, ref: tuple[float, float]) -> list[int]:
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
    xs = [points[i].f1 - ref[0] for i in stair]
    ys = [points[i].f2 for i in stair]
    # best[j][t]: max area selecting j staircase points, the last being t
    best = [[float("-inf")] * m for _ in range(k + 1)]
    back: list[list[int]] = [[-1] * m for _ in range(k + 1)]
    for t in range(m):
        best[1][t] = xs[t] * (ys[t] - ref[1])
    for j in range(2, k + 1):
        for t in range(j - 1, m):
            for u in range(j - 2, t):
                value = best[j - 1][u] + xs[t] * (ys[t] - ys[u])
                if value > best[j][t]:
                    best[j][t] = value
                    back[j][t] = u
    end = 0
    for t in range(m):
        if best[k][t] > best[k][end]:
            end = t
    chosen_positions = []
    j, t = k, end
    while t != -1 and j >= 1:
        chosen_positions.append(t)
        t = back[j][t]
        j -= 1
    return sorted(stair[t] for t in chosen_positions)


def _select_by_fronts(
    candidates: list[FitnessPoint], mu: int, diagnose, pick_overflow
) -> SelectionOutcome:
    """The survivor selection both selectors share.

    Sorts the candidates into fronts, records each one's rank and its
    diagnose() value within its front, then takes whole fronts in rank
    order. From the front that does not fit, pick_overflow(front, need,
    diagnostics) chooses the need indices that fill mu.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if len(candidates) < mu:
        raise ValueError(f"need at least {mu} candidates, got {len(candidates)}")
    fronts = nondominated_sort(candidates)
    ranks = [0] * len(candidates)
    diagnostics = [0.0] * len(candidates)
    for front in fronts:
        values = diagnose([candidates[i] for i in front.indices])
        for i, value in zip(front.indices, values):
            ranks[i] = front.rank
            diagnostics[i] = value
    selected: list[int] = []
    for front in fronts:
        need = mu - len(selected)
        if need == 0:
            break
        if len(front) > need:
            selected.extend(pick_overflow(front, need, diagnostics))
            break
        selected.extend(front.indices)
    return SelectionOutcome(tuple(selected), tuple(ranks), tuple(diagnostics))


def nsga2_select(candidates: list[FitnessPoint], mu: int) -> SelectionOutcome:
    """NSGA-II survivor selection: whole fronts in rank order, the
    overflowing front truncated by descending crowding distance (ties toward
    the lower index)."""

    def by_crowding(front: Front, need: int, crowding: list[float]) -> list[int]:
        return sorted(front.indices, key=lambda i: (-crowding[i], i))[:need]

    return _select_by_fronts(candidates, mu, crowding_distance, by_crowding)


def sms_emoa_select(
    candidates: list[FitnessPoint],
    mu: int,
    ref: tuple[float, float] = DEFAULT_REFERENCE,
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

    def by_hypervolume(front: Front, need: int, contribution: list[float]) -> list[int]:
        if front.rank == 0:  # only when the Pareto front alone exceeds mu
            local_pick = hv_subset_select([candidates[i] for i in front.indices], need, ref, mode)
            return [front.indices[t] for t in local_pick]
        domination_count = _domination_counts(candidates)
        order = sorted(
            front.indices, key=lambda i: (domination_count[i], -contribution[i], i)
        )
        return order[:need]

    return _select_by_fronts(
        candidates, mu, lambda points: hv_contributions(points, ref), by_hypervolume
    )
