"""Shared state variables (SSVs) with time-stamped histories.

In PDES-MAS (Suryanarayanan & Theodoropoulos [52]; Section 2.4),
"communication logical processes (CLPs) maintain, in a distributed
manner, a collection of 'shared-state variables' (SSVs) that describe the
state of the environment as well as the externally viewable
characteristics of the agents such as physical location.  CLPs in fact
maintain a history of SSV values over time."

An :class:`SSV` here is exactly that: a monotone list of
``(timestamp, value)`` writes with reads at arbitrary logical times.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Tuple

from repro.errors import SimulationError


class SSV:
    """One shared state variable with a value history.

    Parameters
    ----------
    ssv_id:
        Globally unique identifier (e.g. ``("position", agent_id)``).
    initial_value:
        Value at logical time 0.
    """

    def __init__(self, ssv_id: Any, initial_value: Any = None) -> None:
        self.ssv_id = ssv_id
        self._times: List[float] = [0.0]
        self._values: List[Any] = [initial_value]
        self.read_count = 0
        self.write_count = 0

    def write(self, time: float, value: Any) -> None:
        """Append a value at logical ``time`` (must be non-decreasing)."""
        if time < self._times[-1]:
            raise SimulationError(
                f"SSV {self.ssv_id!r}: write at {time} before last "
                f"write at {self._times[-1]} (rollback not supported)"
            )
        self.write_count += 1
        if time == self._times[-1]:
            self._values[-1] = value
            return
        self._times.append(time)
        self._values.append(value)

    def read(self, time: float) -> Any:
        """Value as of logical ``time`` (latest write with ts <= time)."""
        self.read_count += 1
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            raise SimulationError(
                f"SSV {self.ssv_id!r}: read at {time} before first write"
            )
        return self._values[index]

    def read_latest(self) -> Tuple[float, Any]:
        """The most recent (timestamp, value) pair, whatever its time."""
        self.read_count += 1
        return self._times[-1], self._values[-1]

    @property
    def last_write_time(self) -> float:
        """Timestamp of the most recent write."""
        return self._times[-1]

    @property
    def history_length(self) -> int:
        """Number of stored (time, value) pairs."""
        return len(self._times)

    def prune_before(self, time: float) -> int:
        """Drop history strictly older than ``time`` (GVT fossil
        collection); keeps at least the last value at or before ``time``.
        Returns the number of entries dropped."""
        index = bisect.bisect_right(self._times, time) - 1
        if index <= 0:
            return 0
        del self._times[:index]
        del self._values[:index]
        return index
