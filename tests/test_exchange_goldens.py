"""Golden digests for the §6.3 conduit exchange.

``plan_exchange`` ranks every candidate conduit by its summed §5.2 gain
estimate across providers.  The digests below pin ``repr`` of the plan
(edges, lengths, gains and cost shares down to the last float bit) and
were recorded against the original NetworkX implementation, so any
rewrite of the exchange's routing must reproduce it byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.mitigation.exchange import plan_exchange
from repro.scenario import Scenario, ScenarioConfig


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


#: sha256 of ``repr(plan_exchange(...))`` for the shared test scenario
#: (seed 2015, campaign_traces 3000), keyed by ``num_conduits``.
US2015_GOLDEN = {
    5: "21995d7e1a8cbb79d54378ff281149fc9b3f152bb2844ed307bbe55a96663be6",
    10: "dacba8aade0eeb18ecfe7ee7d4fd9dce8676aef3d74a7204059b39dfd49b58f4",
}

#: The global2023 map (seed 2023): its default candidate set (unused
#: primary rights-of-way) holds no beneficial conduit, so the plan is
#: empty; every unused city pair at line-of-sight length is the
#: candidate set that exercises the gain estimate.
GLOBAL2023_DEFAULT_GOLDEN = (
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
)
GLOBAL2023_ALL_PAIRS_GOLDEN = (
    "18736293dacaad968d79492914fe285d0052265c07d2bb34ee61bcc21e2849fe"
)


@pytest.fixture(scope="module")
def global_scenario():
    return Scenario(
        config=ScenarioConfig(
            seed=2023, campaign_traces=400, family="global2023"
        )
    )


@pytest.mark.parametrize("num_conduits", sorted(US2015_GOLDEN))
def test_us2015_plan_digest(scenario, num_conduits):
    plan = plan_exchange(
        scenario.constructed_map,
        scenario.network,
        list(scenario.isps),
        num_conduits=num_conduits,
    )
    assert len(plan) == num_conduits
    assert _sha(plan) == US2015_GOLDEN[num_conduits]


def test_global2023_plan_digests(global_scenario):
    fiber_map = global_scenario.constructed_map
    network = global_scenario.network
    isps = list(global_scenario.isps)
    assert _sha(plan_exchange(fiber_map, network, isps)) == (
        GLOBAL2023_DEFAULT_GOLDEN
    )
    used = {c.edge for c in fiber_map.conduits.values()}
    candidates = [
        ((a, b), network.los_km(a, b))
        for a, b in itertools.combinations(sorted(fiber_map.nodes), 2)
        if (a, b) not in used
    ]
    plan = plan_exchange(
        fiber_map, network, isps, num_conduits=5, candidates=candidates
    )
    assert len(plan) == 5
    assert _sha(plan) == GLOBAL2023_ALL_PAIRS_GOLDEN
