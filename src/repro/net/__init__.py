"""The network substrate: a transport seam with two implementations.

:class:`NetworkBus` is the deterministic in-process simulator (see
DESIGN.md, substitutions); :class:`SocketTransport` is the real TCP
transport, one thread per node, speaking the :mod:`repro.net.frames`
protocol with payloads in :mod:`repro.net.codec` wire form.  Both satisfy the
:class:`Transport` protocol, so every tier above runs unchanged on
either.
"""

from repro.net.bus import (
    DEFAULT_WAN_LATENCY_MS,
    LinkStats,
    Message,
    NetworkBus,
)
from repro.net.codec import from_wire, to_wire, wire_size
from repro.net.faults import FaultDecision, FaultPlan, LinkFaults
from repro.net.frames import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    decode_frames,
    encode_frame,
)
from repro.net.socket import SocketTransport
from repro.net.transport import Transport

__all__ = [
    "DEFAULT_WAN_LATENCY_MS",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FaultDecision",
    "FaultPlan",
    "FrameDecoder",
    "LinkFaults",
    "LinkStats",
    "Message",
    "NetworkBus",
    "SocketTransport",
    "Transport",
    "decode_frames",
    "encode_frame",
    "from_wire",
    "to_wire",
    "wire_size",
]
