"""Synthetic workloads shared by the audit and kernel equivalence suites.

* :func:`build_registry` / :func:`build_mixed_density_log` — an E11-style
  hospital registry (``n = 3`` candidate records over a populated table)
  and a Zipf-weighted disclosure log over it whose answers span the density
  spectrum and repeat heavily, as real query logs do;
* :func:`quadratic_well_tensor` — a deep-subdivision adversarial input for
  the Bernstein branch-and-bound kernels.
"""

from __future__ import annotations

import random
from typing import Any, List

import numpy as np

from repro.audit import DisclosureLog
from repro.db import (
    CandidateUniverse,
    ColumnType,
    Database,
    TableSchema,
    parse_boolean_query,
    parse_select_query,
)

#: The E11-style audit query: is Bob's HIV diagnosis disclosed?
AUDIT_QUERY = (
    "EXISTS(SELECT * FROM diagnoses WHERE patient = 'Bob' AND disease = 'hiv')"
)


def build_registry(background_rows: int = 48) -> CandidateUniverse:
    """A hospital registry: 3 candidate records over a populated table.

    The candidate set is deliberately small (the paper's Section 6 point:
    after coarse disclosures few worlds stay relevant) while the table
    itself is not — background rows make every query evaluation scan a
    realistically sized relation.
    """
    db = Database()
    db.create_table(
        TableSchema.build(
            "diagnoses", patient=ColumnType.TEXT, disease=ColumnType.TEXT
        )
    )
    diseases = ("flu", "hiv", "hepatitis", "measles")
    for i in range(background_rows):
        db.insert(
            "diagnoses", patient=f"patient{i:03d}", disease=diseases[i % 4]
        )
    candidates = [
        db.insert("diagnoses", patient="Bob", disease="hiv"),
        db.insert("diagnoses", patient="Carol", disease="hiv"),
        db.hypothetical_record("diagnoses", patient="Dana", disease="hiv"),
    ]
    return CandidateUniverse(db, candidates)


def _exists(patient: str) -> str:
    return f"EXISTS(SELECT * FROM diagnoses WHERE patient = '{patient}')"


def query_pool(universe: CandidateUniverse) -> List[Any]:
    """Mixed-density query shapes over the candidate records.

    Answer sets span the density spectrum: implications and negated counts
    compile to dense (6-world) sets, plain EXISTS to half-cubes, conjunction
    and SELECT answers to sparse (1–2 world) sets.
    """
    patients = ("Bob", "Carol", "Dana")
    texts: List[str] = []
    for p in patients:
        texts.append(_exists(p))
        texts.append(f"NOT {_exists(p)}")
    for p in patients:
        for q in patients:
            if p == q:
                continue
            texts.append(f"{_exists(p)} IMPLIES {_exists(q)}")
    for i, p in enumerate(patients):
        for q in patients[i + 1 :]:
            texts.append(f"{_exists(p)} OR {_exists(q)}")
            texts.append(f"{_exists(p)} AND {_exists(q)}")
            texts.append(f"NOT {_exists(p)} OR NOT {_exists(q)}")
    # Counts over the whole relation: thresholds around the background HIV
    # tally make the answer depend on exactly how many candidates are real.
    background_hiv = 12  # background_rows // 4 at the default size
    for k in range(background_hiv, background_hiv + 4):
        texts.append(f"COUNT(diagnoses WHERE disease = 'hiv') >= {k}")
        texts.append(f"NOT COUNT(diagnoses WHERE disease = 'hiv') >= {k}")
    # Compound audit-shaped disclosures (dense, §1.1-style).
    texts.append(
        f"({_exists('Bob')} IMPLIES {_exists('Carol')}) AND "
        f"({_exists('Dana')} IMPLIES {_exists('Bob')})"
    )
    texts.append(
        f"({_exists('Carol')} OR {_exists('Dana')}) AND "
        f"(NOT {_exists('Dana')} OR {_exists('Bob')})"
    )
    queries: List[Any] = [parse_boolean_query(text) for text in texts]
    # SELECT answers: exact projected rows, typically pinning single worlds.
    for p in patients:
        queries.append(
            parse_select_query(
                f"SELECT disease FROM diagnoses WHERE patient = '{p}'"
            )
        )
    queries.append(
        parse_select_query("SELECT patient FROM diagnoses WHERE disease = 'hiv'")
    )
    return queries


def build_mixed_density_log(
    universe: CandidateUniverse,
    n_events: int = 250,
    seed: int = 7,
) -> DisclosureLog:
    """A Zipf-weighted synthetic log: popular queries dominate, as in real
    workloads, guaranteeing a high duplicate-answer fraction."""
    pool = query_pool(universe)
    rnd = random.Random(seed)
    rnd.shuffle(pool)
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    log = DisclosureLog()
    for t, query in enumerate(rnd.choices(pool, weights=weights, k=n_events)):
        log.record(t, f"user{t % 17:02d}", query)
    return log


def quadratic_well_tensor(n: int, seed: int, eps: float) -> np.ndarray:
    """An adversarial near-boundary gap-style tensor: (p−c)ᵀQ(p−c) + eps.

    Q is random PSD and c interior, so the minimum ``eps`` sits strictly
    inside the box — the worst case for branch-and-bound, which must
    subdivide deeply before the Bernstein enclosure tightens around it.
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    q = m @ m.T / n
    c = rng.uniform(0.3, 0.7, size=n)
    tensor = np.zeros((3,) * n)
    tensor[(0,) * n] = float(c @ q @ c) + eps
    lin = -2.0 * (q @ c)
    for i in range(n):
        idx = [0] * n
        idx[i] = 1
        tensor[tuple(idx)] += lin[i]
        idx[i] = 2
        tensor[tuple(idx)] += q[i, i]
        for j in range(i + 1, n):
            idx = [0] * n
            idx[i] = 1
            idx[j] = 1
            tensor[tuple(idx)] += 2.0 * q[i, j]
    return tensor
