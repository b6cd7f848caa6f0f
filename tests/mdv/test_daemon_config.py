"""``config_from_dict``: the one place a daemon config is validated."""

from __future__ import annotations

import pytest

from repro.mdv.daemon import config_from_dict

BASE = {"name": "m", "role": "mdp"}


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("durable_delivery", "false"),  # truthy: would turn delivery on
        ("durable_delivery", 0),
        ("port", "7401"),
        ("port", True),
        ("port", 7401.0),
        ("port", -1),
        ("port", 70000),
        ("request_timeout_s", "30"),
        ("request_timeout_s", False),
        ("request_timeout_s", -1),
        ("request_timeout_s", 0),
        ("request_timeout_s", float("nan")),  # json.load parses NaN
        ("request_timeout_s", float("inf")),  # and Infinity
        ("triggering", None),
        ("host", 127),
        ("db_path", 1),
    ],
)
def test_mistyped_value_rejected_naming_the_key(key, value):
    with pytest.raises(ValueError, match=key):
        config_from_dict({**BASE, key: value})


@pytest.mark.parametrize(
    "address",
    [
        ["127.0.0.1", "7402"],
        ["127.0.0.1", True],
        [7402, 7402],
        ["127.0.0.1", -1],
        ["127.0.0.1", 70000],
    ],
)
def test_mistyped_peer_address_rejected(address):
    with pytest.raises(ValueError, match="lmr-a"):
        config_from_dict({**BASE, "peers": {"lmr-a": address}})


# Each names a provider knob that was deleted: a config still setting it
# must fail loudly, not be silently ignored.
@pytest.mark.parametrize(
    "key",
    [
        "dedupe",
        "contains_index",
        "parallelism",
        "consistency",
        "recovery",
        "analyze",
    ],
)
def test_removed_knob_rejected_as_unknown_key(key):
    with pytest.raises(ValueError, match=f"unknown service config keys.*{key}"):
        config_from_dict({**BASE, key: "off"})


def test_well_typed_config_accepted():
    config = config_from_dict({
        **BASE,
        "port": 7401,
        "db_path": None,
        "durable_delivery": False,
        "request_timeout_s": 5,
        "peers": {"lmr-a": ["127.0.0.1", 7402]},
    })
    assert config.port == 7401
    assert config.db_path is None
    assert config.durable_delivery is False
    assert config.request_timeout_s == 5.0
    assert isinstance(config.request_timeout_s, float)
    assert config.peers == {"lmr-a": ("127.0.0.1", 7402)}
