"""Event types shared by the simulators.

An *input event* drives a primary-input net to a value at a virtual
time; simulators consume streams of them.  The Time Warp kernel extends
this with signed messages (positive events and their anti-message
twins) carrying send/receive metadata for rollback bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

from ..errors import SimulationError

__all__ = ["InputEvent", "Message", "check_stimulus"]


@dataclass(frozen=True, order=True)
class InputEvent:
    """A primary-input stimulus: drive ``net`` to ``value`` at ``time``."""

    time: int
    net: int
    value: int


def check_stimulus(time, net, value, num_nets: int) -> None:
    """Reject a stimulus the simulators cannot take at face value.

    Gate evaluation is table lookups indexed by net values, so a value
    outside ``{0, 1, X}`` would silently read a neighbouring table row
    and a negative net id would silently write another net; both
    simulators therefore check every stimulus once, where it enters.
    """
    if not isinstance(time, Integral):
        problem = "time is not an integer"
    elif not (isinstance(net, Integral) and 0 <= net < num_nets):
        problem = f"net is not in 0..{num_nets - 1}"
    elif not (isinstance(value, Integral) and 0 <= value <= 2):
        problem = "value is not 0, 1 or 2 (X)"
    else:
        return
    raise SimulationError(
        f"bad stimulus (time={time!r}, net={net!r}, value={value!r}): {problem}"
    )


class Message(NamedTuple):
    """A Time Warp message: a net-change event sent between LPs.

    ``sign`` is +1 for a positive message, -1 for its anti-message;
    the pair is identical in every other field, which is how
    annihilation matches them (classic Jefferson Time Warp).

    ``uid`` is a sender-assigned serial making each positive/anti pair
    unique even when the same (net, value, time) is re-sent after a
    rollback and re-execution.

    A plain tuple underneath: the kernel builds one per boundary send,
    and a tuple costs a fraction of a frozen dataclass to construct.
    """

    recv_time: int
    net: int
    value: int
    src_lp: int
    dst_lp: int
    send_time: int
    uid: int
    sign: int = 1

    def anti(self) -> "Message":
        """The annihilating twin of a positive message."""
        return Message(*self[:7], -self.sign)
