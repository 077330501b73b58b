"""Saving and loading fitted estimators.

Section 6.2 of the paper treats model size as a first-class
practicality metric because CardEst models must be "convenient to
transfer and deploy".  This module provides that transfer path: any
fitted estimator serializes to a single file and loads back ready to
answer estimates.

Model-free estimators (PessEst, WJSample, TrueCard) hold a live
reference to their database, which is intentionally *not* serialized
— they are re-attached on load via ``attach``.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.engine.database import Database
from repro.estimators.base import CardinalityEstimator

#: attribute names that hold live database references (excluded from
#: the serialized payload and re-attached on load).
_DATABASE_ATTRIBUTES = ("_database",)

#: 2: SPN nodes carry their column scope, Chow-Liu trees their sub-tree
#: scopes; a format-1 DeepDB / FLAT / BayesCard file cannot answer.
#: 3: SPN sum nodes carry the scale updates are routed by; a format-2
#: DeepDB / FLAT file cannot update.
FORMAT_VERSION = 3


class PersistenceError(RuntimeError):
    """Raised for unreadable or incompatible estimator files."""


def save_estimator(estimator: CardinalityEstimator, path: Path) -> int:
    """Serialize a fitted estimator; returns the file size in bytes.

    The on-disk payload strips live database references, so files stay
    model-sized even for sampling estimators.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stripped = {}
    try:
        for attribute in _DATABASE_ATTRIBUTES:
            if hasattr(estimator, attribute):
                stripped[attribute] = getattr(estimator, attribute)
                setattr(estimator, attribute, None)
        payload = {
            "format": FORMAT_VERSION,
            "class": type(estimator).__module__ + "." + type(estimator).__qualname__,
            "estimator": pickle.dumps(estimator),
        }
        path.write_bytes(pickle.dumps(payload))
    finally:
        for attribute, value in stripped.items():
            setattr(estimator, attribute, value)
    return path.stat().st_size


def load_estimator(
    path: Path,
    database: Database | None = None,
) -> CardinalityEstimator:
    """Load an estimator saved by :func:`save_estimator`.

    ``database`` re-attaches the live relation for estimators that
    probe data at estimation time (PessEst, WJSample, UniSample's
    refresh path); pure-model estimators ignore it.
    """
    try:
        payload = pickle.loads(Path(path).read_bytes())
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
            raise PersistenceError(f"{path} is not a supported estimator file")
        estimator = pickle.loads(payload["estimator"])
    except (pickle.UnpicklingError, EOFError, KeyError) as error:
        raise PersistenceError(f"cannot load estimator from {path}: {error}") from error
    if not isinstance(estimator, CardinalityEstimator):
        raise PersistenceError(f"{path} does not contain an estimator")
    if database is not None:
        attach(estimator, database)
    return estimator


def attach(estimator: CardinalityEstimator, database: Database) -> None:
    """Re-attach a live database to a loaded estimator (recursively
    for composite estimators that wrap other estimators)."""
    for attribute in _DATABASE_ATTRIBUTES:
        if hasattr(estimator, attribute):
            setattr(estimator, attribute, database)
    for value in vars(estimator).values():
        if isinstance(value, CardinalityEstimator):
            attach(value, database)
