"""Benchmark rule generators — the paper's Figure 10 rule types.

::

    OID:  search CycleProvider c register c where c = URI
    COMP: search CycleProvider c register c where c.synthValue > INT
    PATH: search CycleProvider c register c
          where c.serverInformation.memory = INT
    JOIN: search CycleProvider c register c
          where c.serverHost contains 'uni-passau.de'
            and c.serverInformation.cpu = 600
            and c.serverInformation.memory = INT
    CON:  search CycleProvider c register c
          where c.serverHost contains TOKEN

Matching contracts (paper, Section 4):

- **OID** rule ``i`` registers document ``i``'s CycleProvider by URI —
  exactly one rule per document and vice versa.  OID rules are pure
  triggering rules (no decomposition, no join evaluation).
- **PATH** rule ``i`` keys on the unique ``memory = i`` of document
  ``i`` — one-to-one matching, but through a decomposed join rule, so
  the complete filter machinery runs.
- **JOIN** rule ``i`` adds two more predicates that match *every*
  document (``contains`` on the shared domain, ``cpu = 600``), again
  one-to-one overall and with a deeper dependency tree.
- **COMP** rules carry thresholds ``0 … n-1``; a document with
  ``synthValue = v`` is matched by exactly ``v`` rules, so
  ``synth_value_for_fraction`` picks the value that triggers the desired
  percentage of the rule base.
- **CON** rule ``j`` tests ``serverHost contains`` a pseudo-random
  8-letter token unique to ``j`` (:func:`con_token`); a document whose
  host embeds the tokens ``0 … k-1`` is matched by exactly ``k`` rules
  — the pure-``contains`` analogue of the COMP contract, used by the
  CON series of Figures 13 and 15.  Tokens are drawn from 26^8
  combinations; uniqueness over the generated range is asserted by the
  workload tests.
"""

from __future__ import annotations

import hashlib

from repro.workload.documents import HOST_DOMAIN, JOIN_CPU, host_uri

__all__ = [
    "oid_rule",
    "comp_rule",
    "path_rule",
    "join_rule",
    "con_rule",
    "con_token",
    "rules_of_type",
    "synth_value_for_fraction",
    "RULE_TYPES",
]

RULE_TYPES = ("OID", "COMP", "PATH", "JOIN", "CON")


def oid_rule(index: int) -> str:
    return (
        f"search CycleProvider c register c where c = '{host_uri(index)}'"
    )


def comp_rule(index: int) -> str:
    return (
        f"search CycleProvider c register c where c.synthValue > {index}"
    )


def path_rule(index: int) -> str:
    return (
        f"search CycleProvider c register c "
        f"where c.serverInformation.memory = {index}"
    )


def join_rule(index: int) -> str:
    return (
        f"search CycleProvider c register c "
        f"where c.serverHost contains '{HOST_DOMAIN}' "
        f"and c.serverInformation.cpu = {JOIN_CPU} "
        f"and c.serverInformation.memory = {index}"
    )


def con_token(index: int) -> str:
    """A deterministic pseudo-random 8-letter token for CON rule ``index``.

    Lowercase letters only, so a token can never straddle the ``.``
    separators of a benchmark host name — token ``j`` is a substring of
    the host exactly when the host embeds token ``j`` whole.
    """
    digest = hashlib.md5(f"con{index}".encode()).digest()
    return "".join(chr(97 + byte % 26) for byte in digest[:8])


def con_rule(index: int) -> str:
    return (
        f"search CycleProvider c register c "
        f"where c.serverHost contains '{con_token(index)}'"
    )


_GENERATORS = {
    "OID": oid_rule,
    "COMP": comp_rule,
    "PATH": path_rule,
    "JOIN": join_rule,
    "CON": con_rule,
}


def rules_of_type(rule_type: str, count: int, start_index: int = 0) -> list[str]:
    """``count`` rules of one Figure-10 type, indexed consecutively."""
    try:
        generator = _GENERATORS[rule_type]
    except KeyError:
        raise ValueError(
            f"unknown rule type {rule_type!r}; expected one of {RULE_TYPES}"
        ) from None
    return [generator(index) for index in range(start_index, start_index + count)]


def synth_value_for_fraction(rule_count: int, fraction: float) -> int:
    """The ``synthValue`` that triggers ``fraction`` of a COMP rule base.

    COMP rule ``j`` matches documents with ``synthValue > j``; a document
    with ``synthValue = v`` therefore matches rules ``0 … v-1`` — exactly
    ``v`` of the ``rule_count`` rules.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    return round(rule_count * fraction)
