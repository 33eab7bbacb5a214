"""Seeded, labelled input corpora, generated before any clock starts.

``synthetic_roster`` leaves every generated course unlabelled, which makes
a report drop its agreement-by-label and CS1/DS flavour sections.  Here
each generated course gets the labels the canonical 20-course ``ROSTER``
pairs with its primary archetype (e.g. ``cs1-imperative`` -> CS1,
``ds-combinatorial`` -> DS + Algo, ``cs2``/``networking`` -> none).
"""

from __future__ import annotations

import dataclasses

from repro.corpus.generator import generate_corpus, synthetic_roster
from repro.corpus.roster import ROSTER


def primary_archetype(mixture) -> str:
    """The mixture's heaviest archetype (ties broken by name)."""
    return max(sorted(mixture), key=lambda name: mixture[name])


def archetype_labels() -> dict:
    """Primary archetype -> union of the labels ``ROSTER`` gives it."""
    out: dict = {}
    for entry in ROSTER:
        out.setdefault(primary_archetype(entry.mixture), set()).update(
            entry.labels
        )
    return {name: frozenset(labels) for name, labels in out.items()}


def labelled_corpus(tree, n_courses: int, seed: int) -> list:
    """``n_courses`` generated courses (~27 materials each), labelled."""
    labels = archetype_labels()
    roster = [
        dataclasses.replace(
            entry,
            labels=labels.get(primary_archetype(entry.mixture), frozenset()),
        )
        for entry in synthetic_roster(n_courses, seed=seed)
    ]
    return generate_corpus(tree, seed=seed, roster=roster)
