"""Sim-vs-socket differential oracle.

The real :class:`~repro.net.socket.SocketTransport` must be observably
identical to the simulated :class:`~repro.net.bus.NetworkBus`: the
scenario of :mod:`repro.workload.differential`, run once over each,
must apply the same batches in the same order with the same delivery
stamps (``source``, ``seq``) and the same notification order within
each batch, leave equal LMR statistics, filter passes and provider
state, and reproduce the reference digest — under both triggering
modes.  Any divergence means one transport reorders, drops, duplicates
or re-encodes something the other does not.
"""

from __future__ import annotations

import json

import pytest

from repro.workload.differential import Run, diff_digests, reference_digest, scenario
from tests.workload.differential_helpers import SEEDS


@pytest.mark.parametrize("triggering", ["sql", "counting"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sim_and_socket_transports_are_observably_identical(
    seed, triggering
):
    sim, real = (
        Run({"triggering": triggering}, transport).run(scenario(seed))
        for transport in ("bus", "socket")
    )
    assert sim.failures == real.failures == []
    # The scenario produced stamped notifications for both LMRs: the
    # oracle is not comparing empty streams.
    assert all(sim.applied.values()) and sim.stamps
    assert real.applied == sim.applied
    assert real.stamps == sim.stamps
    assert real.passes == sim.passes
    assert {name: lmr.stats() for name, lmr in real.lmrs.items()} == {
        name: lmr.stats() for name, lmr in sim.lmrs.items()
    }
    assert real.digest() == sim.digest()
    digest = json.loads(json.dumps(real.digest()))
    assert diff_digests("socket", digest, reference_digest(seed)) == []
