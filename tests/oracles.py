"""Brute-force reference implementations used to check the fast algorithms.

Everything here favors obviousness over speed: the hypervolume oracle sums
grid cells after coordinate compression, the sorting oracle peels fronts
off a full dominance matrix, domination counts test every ordered pair,
subset selection enumerates every combination, and the classifier oracle
runs one regex per lexicon word. The line oracle encodes a whole
individual with json.dumps, which the runner's survivor writer must match
byte for byte. The exact subset selection's table DP, mock generator,
completion cleaner, token-budget truncation and record loader are the
package's earlier straightforward versions, copied as they were, which the
faster ones must match index for index, reply for reply and point for
point. The tree oracle reads a finished run's files and
checks the invariants every correct tree holds.
None of it shares code with the package under test beyond the value types,
the classifier's token budget, the record schema (individual_to_dict), the
mock generator's word lists and, for the bytes of hypervolume.csv,
hypervolume_2d (itself checked against the grid oracle here).
The token estimate and the dominance predicate live here because only the
tests use them.
"""

import json
import logging
import math
import random
import re
import statistics
from fractions import Fraction
from itertools import combinations

from moprompt.backends import (
    _INJECTION_POOL,
    _MOCK_MAX_PROMPT_TOKENS,
    _NEUTRAL_WORDS,
    _PROMPT_STOPWORDS,
    _STORY_CLOSERS,
    _STORY_OPENERS,
    CLASSIFIER_TOKEN_BUDGET,
    SUBWORDS_PER_WORD,
    GenerationRequest,
)
from moprompt.domain import (
    MAX_PROMPT_CHARS,
    EmotionLabel,
    EmotionScores,
    FitnessPoint,
    Individual,
    individual_to_dict,
)
from moprompt.moea import hypervolume_2d


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


def exact_subset_oracle(points: list[FitnessPoint], k: int) -> list[int]:
    """The exact subset selection's earlier O(k·m²) table DP, whose indices
    the package's must match: over the staircase of the m distinct maximal
    points (descending f1, the lowest index of each coordinate), best[j][t]
    is the max area of j of them, the last being t; every maximization keeps
    the first best it meets. When k >= m, the staircase is padded with the
    lowest-index leftovers."""
    order = sorted(range(len(points)), key=lambda i: (-points[i].f1, -points[i].f2, i))
    stair: list[int] = []
    for i in order:
        if not stair or points[i].f2 > points[stair[-1]].f2:
            stair.append(i)
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
    best = [[float("-inf")] * m for _ in range(k + 1)]
    back: list[list[int]] = [[-1] * m for _ in range(k + 1)]
    for t in range(m):
        best[1][t] = xs[t] * ys[t]
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


def crowding_oracle(points: list[FitnessPoint]) -> list[float]:
    """Literal crowding distance recomputation."""
    n = len(points)
    if n == 0:
        return []
    if n <= 2:
        return [float("inf")] * n
    result = [0.0] * n
    for axis in (0, 1):
        values = [(p.f1, p.f2)[axis] for p in points]
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


def truncate_to_token_budget_oracle(text: str, budget: int = CLASSIFIER_TOKEN_BUDGET) -> str:
    """Drop trailing words until the estimated subword count fits the budget."""
    words = text.split()
    limit = int(budget / SUBWORDS_PER_WORD)
    if len(words) <= limit:
        return text
    return " ".join(words[:limit])


def classify_oracle(text: str, lexicons: dict) -> EmotionScores:
    """Keyword-count emotion scores with one whole-word regex per lexicon
    entry: raw score 1 + matches per label, normalized to sum to 1."""
    lowered = truncate_to_token_budget_oracle(text).lower()
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
    truncate_to_token_budget_oracle keeps within its budget."""
    return math.ceil(len(text.split()) * SUBWORDS_PER_WORD)


def encode_individual_oracle(ind: Individual) -> str:
    """One gen_k.jsonl line, without its newline."""
    return json.dumps(individual_to_dict(ind), ensure_ascii=False)


def load_points_oracle(path) -> list[FitnessPoint]:
    """The fitness points of one gen_k.jsonl, every non-blank line parsed and
    checked; a ValueError for a file with a bad record or none."""
    points = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            try:
                points.append(FitnessPoint(*data["fitness"]))
            except (KeyError, TypeError):
                raise ValueError("record without a two-number fitness") from None
    if not points:
        raise ValueError("no individuals in record")
    return points


SELECTION_FIELDS = ("rank", "crowding", "contribution")
OFFSPRING_STEPS = ["crossover", "mutation", "generation"]


def check_tree(run_dir) -> None:
    """Assert the invariants of a finished run's output tree, reading only
    the tree.

    summary.json gives mu, lambda, generations, selector, hv_mode and the
    ok repetitions. In each ok repetition:
    - every gen file holds mu records with distinct ids; gen 0 holds the
      founders 0..mu-1, each with no parents, one generation step and no
      selection fields;
    - from gen 1 on, each survivor is carried over from the previous gen,
      its record unchanged apart from the selection fields, or new: an id of
      this generation's offspring, two distinct parents from the previous
      gen and a crossover, mutation, generation trace (plus an evaluation
      fallback when scoring failed);
    - from gen 1 on, ranks never decrease down the file and each equals the
      nondominated rank over that gen file alone, because selection keeps
      whole fronts in rank order (Deb et al. 2002); the selector's
      diagnostic is set and the other one null;
    - hypervolume.csv row g holds g, the repr of gen g's hypervolume and a
      fallback count no smaller than the new survivors' fallbacks (equal in
      gen 0, where every founder survives); the hypervolume never falls
      under SMS-EMOA exact, nor under any selector when a survivor's rank is
      above 0, because all of front 0 then survived and the hypervolume is
      Pareto-compliant (Zitzler et al. 2003);
    - pareto_front.json holds the final gen's rank-0 records in order, and
      the summary's per-repetition and aggregate figures are the CSV's.
    """
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    mu, lam, generations = summary["mu"], summary["lambda"], summary["generations"]
    diagnostic, other = (("crowding", "contribution") if summary["selector"] == "nsga2"
                         else ("contribution", "crowding"))
    always_monotone = (summary["selector"], summary["hv_mode"]) == ("sms_emoa", "exact")
    results = summary["results"]
    assert [r["repetition"] for r in results] == list(range(summary["repetitions"]))
    ok = [r for r in results if r["status"] == "ok"]
    for result in ok:
        rep_dir = run_dir / f"rep_{result['repetition']}"
        rows = (rep_dir / "hypervolume.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "generation,hypervolume,fallback_count"
        assert len(rows) == generations + 2
        series: list[float] = []
        previous: dict = {}
        for g in range(generations + 1):
            lines = (rep_dir / f"gen_{g}.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            ids = [record["id"] for record in records]
            assert len(records) == mu and len(set(ids)) == mu, (g, ids)
            points = [FitnessPoint(*record["fitness"]) for record in records]
            new = [record for record in records if record["id"] not in previous]
            if g == 0:
                assert ids == list(range(mu))
                for record in records:
                    assert record["parent_ids"] == []
                    assert [step["kind"] for step in record["operator_trace"]] == ["generation"]
                    assert [record[name] for name in SELECTION_FIELDS] == [None] * 3
            else:
                rank_of = {i: rank for rank, front in enumerate(sort_oracle(points))
                           for i in front}
                ranks = [record["rank"] for record in records]
                assert ranks == [rank_of[i] for i in range(mu)] == sorted(ranks), (g, ranks)
                for record in records:
                    assert record[diagnostic] is not None and record[other] is None
                    if record["id"] in previous:
                        assert _unselected(record) == _unselected(previous[record["id"]])
                for record in new:
                    assert mu + (g - 1) * lam <= record["id"] < mu + g * lam, (g, record["id"])
                    parents = record["parent_ids"]
                    assert len(set(parents)) == 2 and set(parents) <= previous.keys()
                    kinds = [step["kind"] for step in record["operator_trace"]]
                    assert kinds[:3] == OFFSPRING_STEPS and kinds[3:] in ([], ["evaluation"])
            hypervolume = hypervolume_2d(points)
            assert math.isclose(hypervolume, hypervolume_oracle(points, (0.0, 0.0)),
                                rel_tol=1e-12, abs_tol=1e-15)
            generation, cell, fallbacks = rows[g + 1].split(",")
            assert (generation, cell) == (str(g), repr(hypervolume)), (g, rows[g + 1])
            new_fallbacks = sum(step["fallback"] for record in new
                                for step in record["operator_trace"])
            assert (int(fallbacks) == new_fallbacks if g == 0
                    else int(fallbacks) >= new_fallbacks), (g, fallbacks)
            if g and (always_monotone or any(record["rank"] for record in records)):
                assert hypervolume >= series[-1], (g, series[-1], hypervolume)
            series.append(hypervolume)
            previous = {record["id"]: record for record in records}
        assert (result["final_hypervolume"], result["max_hypervolume"]) == (series[-1],
                                                                            max(series))
        front = json.loads((rep_dir / "pareto_front.json").read_text(encoding="utf-8"))
        assert front == {"pair": summary["pair"], "selector": summary["selector"],
                         "repetition": result["repetition"],
                         "individuals": [r for r in records if r["rank"] == 0]}
    for name, key in (("final", "final_hypervolume"), ("running_max", "max_hypervolume")):
        values = [r[key] for r in ok]
        if not values:
            assert summary[name] is None, name
            continue
        stats = dict(summary[name])
        std_dev = stats.pop("std_dev")
        assert stats == {"best": max(values), "worst": min(values),
                         "mean": statistics.fmean(values)}, name
        assert is_rounded_stdev(std_dev, values), (name, std_dev)


def is_rounded_stdev(std_dev: float, values: list[float]) -> bool:
    """Whether std_dev is the exact sample standard deviation of values
    (0.0 for a single value) correctly rounded: the exact variance lies
    between the squares of the half-way points to the neighbouring floats.
    It uses no statistics.stdev, which domain.stats calls, so the two stay
    independent."""
    if len(values) < 2:
        return std_dev == 0.0
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
    below = max((Fraction(std_dev) + Fraction(math.nextafter(std_dev, 0.0))) / 2, Fraction(0))
    above = (Fraction(std_dev) + Fraction(math.nextafter(std_dev, math.inf))) / 2
    return below ** 2 <= variance <= above ** 2


def _unselected(record: dict) -> dict:
    return {key: value for key, value in record.items() if key not in SELECTION_FIELDS}


_WORD_RE = re.compile(r"[a-zA-Z]+")


def _content_words(text: str) -> list[str]:
    words = [w.lower() for w in _WORD_RE.findall(text)]
    return [w for w in words if len(w) >= 3 and w not in _PROMPT_STOPWORDS]


class MockTextGeneratorOracle:
    """Seeded stand-in for the live model.

    The reply is a pure function of (system, prompt body, seed). The request
    body decides the task: prompt-combination requests merge the two quoted
    parent prompts, prompt-rewrite requests edit the embedded prompt and
    inject a word from a fixed pool, and anything else is treated as a story
    request whose reply echoes the prompt's content words. Replies are never
    empty.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def complete(self, request: GenerationRequest) -> str:
        rng = random.Random(f"{self.seed}|{request.system}|{request.prompt_body}")
        body = request.prompt_body
        if "Mutation Prompt:" in body:
            return self._rewrite(body, rng)
        if "One prompt is:" in body:
            return self._merge(body, rng)
        return self._story(body, rng)

    def _merge(self, body: str, rng: random.Random) -> str:
        quoted = re.findall(r'"([^"]*)"', body)
        parent_a = quoted[0] if quoted else ""
        parent_b = quoted[1] if len(quoted) > 1 else parent_a
        merged: list[str] = []
        for word in parent_a.split() + parent_b.split():
            lowered = word.lower().strip('"')
            if lowered and lowered not in merged and rng.random() < 0.9:
                merged.append(lowered)
        if not merged:
            merged = ["write", "a", "short", "story"]
        merged = _cap_tokens(merged, rng)
        return " ".join(merged)

    def _rewrite(self, body: str, rng: random.Random) -> str:
        targets = re.findall(r"(?m)^Prompt:\s*(.*)$", body)
        target = targets[-1].strip() if targets else "write a short story"
        tokens = [w.strip('"') for w in target.split() if w.strip('"')]
        if not tokens:
            tokens = ["write", "a", "short", "story"]
        if len(tokens) > 3 and rng.random() < 0.2:
            tokens.pop(rng.randrange(len(tokens)))
        injected = rng.choice(_INJECTION_POOL)
        tokens.insert(rng.randrange(len(tokens) + 1), injected)
        tokens = _cap_tokens(tokens, rng)
        return " ".join(tokens)

    def _story(self, body: str, rng: random.Random) -> str:
        words = _content_words(body)
        opener = rng.choice(_STORY_OPENERS)
        closer = rng.choice(_STORY_CLOSERS)
        filler = rng.choice(_NEUTRAL_WORDS)
        if words:
            middle = ", ".join(words)
            return (
                f"{opener}, the telling spoke of {middle}. "
                f"A {filler} stood witness through it all. {closer}."
            )
        return f"{opener}, a {filler} waited alone. {closer}."


def _cap_tokens(tokens: list[str], rng: random.Random) -> list[str]:
    if len(tokens) <= _MOCK_MAX_PROMPT_TOKENS:
        return tokens
    keep = sorted(rng.sample(range(len(tokens)), _MOCK_MAX_PROMPT_TOKENS))
    return [tokens[i] for i in keep]


logger = logging.getLogger(__name__)

_LABEL_PREFIX_RE = re.compile(
    r"^(?:new prompt|prompt|response|answer|output|assistant|user|story)\s*[:\-]\s*",
    re.IGNORECASE,
)
_QUOTE_PAIRS = {'"': '"', "'": "'", "“": "”", "‘": "’"}


def clean_completion_oracle(raw: str, max_chars: int = MAX_PROMPT_CHARS) -> str:
    """Normalize a raw completion into a single instruction line.

    Strips code fences, keeps the first non-empty paragraph, removes leading
    role or label markers and enclosing quotes, collapses whitespace, and
    truncates at the last sentence boundary inside the character budget.
    Returns an empty string when nothing survives.
    """
    text = raw.strip()
    if text.startswith("```"):
        lines = text.split("\n")
        lines = lines[1:]
        if lines and lines[-1].strip().startswith("```"):
            lines = lines[:-1]
        text = "\n".join(lines).strip()
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    if not paragraphs:
        return ""
    text = re.sub(r"\s+", " ", paragraphs[0])
    for _ in range(4):
        stripped = _LABEL_PREFIX_RE.sub("", text).strip()
        if stripped == text:
            break
        text = stripped
    while len(text) >= 2 and text[0] in _QUOTE_PAIRS and text[-1] == _QUOTE_PAIRS[text[0]]:
        text = text[1:-1].strip()
    if len(text) > max_chars:
        cut = text[:max_chars]
        boundary = max(cut.rfind(mark) for mark in ".!?")
        text = cut[: boundary + 1] if boundary > 0 else cut
        logger.info("truncated completion to %d characters", len(text))
    return text.strip()
