"""Evolutionary multi-objective optimization of LLM prompts.

Prompts are evolved so the texts generated from them score highly on two
conflicting emotions at once. The package provides the bi-objective
selection machinery (NSGA-II and hypervolume-based survivor selection with
exact 2-D hypervolume routines), LLM-backed variation operators, live and
mock backends, and a reproducible experiment runner with a CLI.
"""

from .domain import (
    EmotionLabel,
    EmotionScores,
    FitnessPoint,
    GeneratedText,
    Individual,
    ObjectivePair,
    Prompt,
    extract_fitness,
)
from .runner import RunConfig, build_backends, run_experiment

__version__ = "0.1.0"

__all__ = [
    "EmotionLabel",
    "EmotionScores",
    "FitnessPoint",
    "GeneratedText",
    "Individual",
    "ObjectivePair",
    "Prompt",
    "RunConfig",
    "build_backends",
    "extract_fitness",
    "run_experiment",
    "__version__",
]
