"""Golden digests for the §3 buffer-overlap measurement (Figures 4 and 5).

``geography_report`` gives every conduit its road, rail, pipeline and
road-or-rail co-location fractions.  The digests below pin ``repr`` of
those rows (conduit ids and every fraction down to the last float bit)
for the shared test scenario (seed 2015, campaign_traces 3000) at the
three buffer widths of the buffer ablation.  They were recorded against
the per-point implementation (now ``tests/oracles/geography.py``), so
the batched corridor-grid kernel must reproduce it byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.geography import geography_report

#: sha256 of ``repr(geography_report(...).colocations)``, keyed by buffer km.
US2015_GOLDEN = {
    5.0: "a6085b3e14c98b32547f3d957b8bf4df70613c8c16a3d831ef5d7424508d7785",
    15.0: "43957a2cbac4fe24e3559c417ba3448619be2ff5ba877b3977c2913d305c5b0c",
    30.0: "ad20a25c56bf70297ba221d7cb0ff06106a185f1c6c7468dd910b654ad5208fa",
}


@pytest.mark.parametrize("buffer_km", sorted(US2015_GOLDEN))
def test_us2015_colocation_digest(scenario, buffer_km):
    report = geography_report(
        scenario.constructed_map, scenario.network, buffer_km=buffer_km
    )
    assert len(report.colocations) == len(scenario.constructed_map.conduits)
    digest = hashlib.sha256(repr(report.colocations).encode("utf-8")).hexdigest()
    assert digest == US2015_GOLDEN[buffer_km]
