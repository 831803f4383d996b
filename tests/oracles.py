"""Brute-force reference implementations used to check the fast algorithms.

Everything here favors obviousness over speed: the hypervolume oracle sums
grid cells after coordinate compression, the sorting oracle peels fronts
off a full dominance matrix, domination counts test every ordered pair,
subset selection enumerates every combination, and the classifier oracle
runs one regex per lexicon word. The line oracle encodes a whole
individual with json.dumps, which the runner's survivor writer must match
byte for byte.
None of it shares code with the package under test beyond the value types,
the classifier's truncation rule and the record schema (individual_to_dict).
The token estimate and the dominance predicate live here because only the
tests use them.
"""

import json
import math
import re
from itertools import combinations

from moprompt.backends import SUBWORDS_PER_WORD, truncate_to_token_budget
from moprompt.domain import EmotionLabel, EmotionScores, FitnessPoint, Individual
from moprompt.runner import individual_to_dict


def dominates(a: FitnessPoint, b: FitnessPoint) -> bool:
    """True if a is at least as good as b in both objectives and strictly
    better in at least one. Irreflexive: a point never dominates itself."""
    return a.f1 >= b.f1 and a.f2 >= b.f2 and (a.f1 > b.f1 or a.f2 > b.f2)


def dominates_oracle(a: FitnessPoint, b: FitnessPoint) -> bool:
    if a.f1 < b.f1 or a.f2 < b.f2:
        return False
    return a.f1 > b.f1 or a.f2 > b.f2


def sort_oracle(points: list[FitnessPoint]) -> list[list[int]]:
    """Fronts by repeated peeling of the dominance matrix."""
    n = len(points)
    matrix = [[dominates_oracle(points[i], points[j]) for j in range(n)] for i in range(n)]
    alive = set(range(n))
    fronts = []
    while alive:
        front = sorted(
            i for i in alive if not any(matrix[j][i] for j in alive if j != i)
        )
        fronts.append(front)
        alive -= set(front)
    return fronts


def domination_count_oracle(points: list[FitnessPoint]) -> list[int]:
    """How many points dominate each point, by testing every pair."""
    return [sum(dominates_oracle(q, p) for q in points) for p in points]


def hypervolume_oracle(points: list[FitnessPoint], ref: tuple[float, float]) -> float:
    """Union area of the dominated rectangles via coordinate compression."""
    if not points:
        return 0.0
    xs = sorted({ref[0]} | {p.f1 for p in points})
    ys = sorted({ref[1]} | {p.f2 for p in points})
    area = 0.0
    for xi in range(len(xs) - 1):
        for yi in range(len(ys) - 1):
            x_hi, y_hi = xs[xi + 1], ys[yi + 1]
            if any(p.f1 >= x_hi and p.f2 >= y_hi for p in points):
                area += (x_hi - xs[xi]) * (y_hi - ys[yi])
    return area


def contributions_oracle(points: list[FitnessPoint], ref: tuple[float, float]) -> list[float]:
    full = hypervolume_oracle(points, ref)
    return [
        full - hypervolume_oracle(points[:i] + points[i + 1 :], ref)
        for i in range(len(points))
    ]


def best_subset_oracle(
    points: list[FitnessPoint], k: int, ref: tuple[float, float]
) -> tuple[float, tuple[int, ...]]:
    """Optimal k-subset hypervolume by full enumeration. Returns the best
    value and the lexicographically first subset achieving it."""
    best_value = -1.0
    best_subset: tuple[int, ...] = ()
    for subset in combinations(range(len(points)), k):
        value = hypervolume_oracle([points[i] for i in subset], ref)
        if value > best_value + 1e-15:
            best_value = value
            best_subset = subset
    return best_value, best_subset


def crowding_oracle(points: list[FitnessPoint]) -> list[float]:
    """Literal crowding distance recomputation."""
    n = len(points)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    result = [0.0] * n
    for axis in (0, 1):
        values = [p.as_tuple()[axis] for p in points]
        order = sorted(range(n), key=lambda i: (values[i], i))
        result[order[0]] = float("inf")
        result[order[-1]] = float("inf")
        lo, hi = values[order[0]], values[order[-1]]
        if hi == lo:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if result[i] != float("inf"):
                result[i] += (values[order[pos + 1]] - values[order[pos - 1]]) / (hi - lo)
    return result


def classify_oracle(text: str, lexicons: dict) -> EmotionScores:
    """Keyword-count emotion scores with one whole-word regex per lexicon
    entry: raw score 1 + matches per label, normalized to sum to 1."""
    lowered = truncate_to_token_budget(text).lower()
    raw = {}
    for label in EmotionLabel:
        count = sum(
            len(re.findall(r"\b" + re.escape(word.lower()) + r"\b", lowered))
            for word in lexicons.get(label, ())
        )
        raw[label] = 1.0 + count
    total = sum(raw.values())
    return EmotionScores({label: raw[label] / total for label in EmotionLabel})


def estimate_tokens(text: str) -> int:
    """Conservative subword count estimate from whitespace tokens, the one
    truncate_to_token_budget keeps within its budget."""
    return math.ceil(len(text.split()) * SUBWORDS_PER_WORD)


def encode_individual_oracle(ind: Individual) -> str:
    """One gen_k.jsonl line, without its newline."""
    return json.dumps(individual_to_dict(ind), ensure_ascii=False)
