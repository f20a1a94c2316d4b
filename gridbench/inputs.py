"""Seeded input generators: names, contents, attribute values, key skew.

Everything a workload feeds the grid comes from here, derived from the
``--seed`` argument through :func:`stream`, so one seed always produces
the same inputs and a different seed changes names and contents but not
how many operations run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

_WORDS = ("ibis", "heron", "crane", "egret", "stork", "finch", "swift",
          "wren", "kite", "plover", "tern", "skua", "shrike", "pipit")


def stream(seed: int, *scope: object) -> random.Random:
    """An independent generator for one (seed, scope) pair."""
    return random.Random("/".join(str(part) for part in (seed,) + scope))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def unique_names(rng: random.Random, n: int, suffix: str) -> List[str]:
    """``n`` distinct object names of varying length."""
    seen = set()
    names: List[str] = []
    while len(names) < n:
        name = f"{rng.choice(_WORDS)}-{rng.randrange(10 ** 7)}{suffix}"
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def skewed_index(rng: random.Random, n: int) -> int:
    """80 % of picks fall on the first 20 % of ``n`` keys."""
    hot = max(1, n // 5)
    if rng.random() < 0.8:
        return rng.randrange(hot)
    return hot + rng.randrange(n - hot) if n > hot else 0


def interleave(rng: random.Random, counts: Dict[str, int]) -> List[str]:
    """A shuffled op sequence holding exactly ``counts[k]`` of each kind."""
    seq = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(seq)
    return seq


@dataclass(frozen=True)
class SurveyFile:
    """One 2MASS-shaped catalog entry: tiny payload, five attributes."""

    name: str
    content: bytes
    attributes: Dict[str, str]


SURVEY_FIELDS = 64


def survey_files(rng: random.Random, n: int,
                 payload_bytes: int = 64) -> List[SurveyFile]:
    """Sky-survey tiles: position, magnitude, night, field."""
    files = []
    for name in unique_names(rng, n, ".fits"):
        attributes = {
            "RA": f"{rng.uniform(0.0, 360.0):.4f}",
            "DEC": f"{rng.uniform(-90.0, 90.0):.4f}",
            "JMAG": f"{rng.uniform(4.0, 16.0):.2f}",
            "NIGHT": f"1999-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "FIELD": str(rng.randrange(SURVEY_FIELDS)),
        }
        files.append(SurveyFile(name, rng.randbytes(payload_bytes),
                                attributes))
    return files


def bulk_items(coll: str, files: Sequence[SurveyFile]) -> List[dict]:
    """``bulk_ingest`` items placing ``files`` under ``coll``."""
    return [{"path": f"{coll}/{f.name}", "data": f.content,
             "data_type": "fits image", "metadata": f.attributes}
            for f in files]


def write_mix(rng: random.Random, counts: Dict[str, int]) -> List[str]:
    """Like :func:`interleave`, but an op that needs an existing object
    (anything but ``ingest``) is only drawn while one exists."""
    left = dict(counts)
    live = 0
    seq: List[str] = []
    while any(left.values()):
        kinds = [k for k, c in left.items()
                 if c and (k == "ingest" or live > 0)]
        kind = rng.choices(kinds, [left[k] for k in kinds])[0]
        left[kind] -= 1
        live += (kind == "ingest") - (kind == "delete")
        seq.append(kind)
    return seq
