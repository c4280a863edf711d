"""Cold start: the offline auditor and the gateway run without scipy.

scipy backs only the randomized counterexample searches and the
certificate and bound stages, and each of those imports it where it runs.
A fresh interpreter that imports the offline auditor, the SQLite store and
the gateway, then audits a product-family log the criteria settle, must
never load it: scipy's import alone is most of a cold process's setup.
"""

from __future__ import annotations

import json
import subprocess
import sys

_SNIPPET = r"""
import json
import sys

import repro.audit.offline
import repro.audit.store_sql
import repro.service
from repro.audit import AuditPolicy, BatchAuditEngine, DisclosureLog, PriorAssumption
from repro.db import (
    CandidateUniverse,
    ColumnType,
    Database,
    TableSchema,
    parse_boolean_query,
)

db = Database()
db.create_table(
    TableSchema.build("diagnoses", patient=ColumnType.TEXT, disease=ColumnType.TEXT)
)
patients = [f"p{i}" for i in range(6)]
records = [db.insert("diagnoses", patient=p, disease="hiv") for p in patients[:3]]
records += [
    db.hypothetical_record("diagnoses", patient=p, disease="hiv")
    for p in patients[3:]
]
universe = CandidateUniverse(db, records)


def exists(p):
    return f"EXISTS(SELECT * FROM diagnoses WHERE patient = '{p}')"


texts = [exists(p) for p in patients[1:]] + [
    f"{exists('p0')} OR {exists('p1')}",
    f"NOT {exists('p0')} OR {exists('p2')}",
    f"{exists('p1')} AND NOT {exists('p3')}",
    f"{exists('p0')} IMPLIES {exists('p4')}",
    f"{exists('p0')} AND {exists('p2')}",
]
log = DisclosureLog()
for t, text in enumerate(texts * 2):
    log.record(t, f"user{t % 3}", parse_boolean_query(text))
policy = AuditPolicy(
    audit_query=parse_boolean_query(exists("p0")),
    assumption=PriorAssumption.PRODUCT,
    name="cold-start",
)
report = BatchAuditEngine(universe, policy).audit_log(log)
print(json.dumps({
    "n": universe.space.n,
    "methods": sorted({f.verdict.method for f in report.findings}),
    "statuses": sorted({f.verdict.status.value for f in report.findings}),
    "scipy": "scipy" in sys.modules,
}))
"""


class TestColdStart:
    def test_offline_auditor_and_gateway_never_import_scipy(self):
        out = subprocess.run(
            [sys.executable, "-c", _SNIPPET],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        result = json.loads(out.stdout)
        assert result["n"] == 6
        # The criteria settled every pair, both ways, so no stage that
        # needs scipy had to run ...
        assert set(result["methods"]) <= {
            "box-necessary",
            "miklau-suciu",
            "monotonicity",
            "cancellation",
        }
        assert result["statuses"] == ["safe", "unsafe"]
        # ... and nothing imported it anyway.
        assert result["scipy"] is False
