"""Task definitions for the Dalorex programming model.

A task is one stage of a split loop iteration (the paper's T1..T4).  Each task
declares the index space that routes its invocations: the first parameter of an
invocation is interpreted as a global index into that space, and the message is
delivered to the tile owning that index (the paper's headerless payload-based
routing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Task:
    """One task type of a Dalorex program.

    Attributes:
        task_id: dense integer identifier (assigned by the program).
        name: human-readable task name (``"T1_explore"``...).
        handler: ``handler(ctx, *params)`` executed functionally by the engines.
        route_space: name of the index space whose owner receives invocations
            (the first invocation parameter is the routing index).
        num_params: number of invocation parameters; also the message length in
            flits (the routing index is the head flit, as in the paper).
        iq_capacity: input-queue entries reserved for this task on every tile.
    """

    task_id: int
    name: str
    handler: Callable
    route_space: str
    num_params: int
    iq_capacity: int = 64

    #: Message length in flits: one flit per parameter, head included.
    flits_per_invocation: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_params < 1:
            raise ValueError(f"task {self.name!r} must take at least the routing index")
        if self.iq_capacity < 1:
            raise ValueError(f"task {self.name!r} needs a positive input-queue capacity")
        self.flits_per_invocation = self.num_params

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Task(id={self.task_id}, name={self.name!r}, route={self.route_space!r}, "
            f"params={self.num_params}, iq={self.iq_capacity})"
        )

