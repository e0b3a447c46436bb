"""Dalorex program: the set of distributed arrays and tasks a kernel defines.

A program corresponds to the per-tile binary the host broadcasts in the paper:
array declarations (distributed by index space), task declarations with their
input-queue sizes, and the channel structure implied by which task invokes
which.  Application kernels (``repro.apps``) build one program each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ProgramError
from repro.core.task import Task

#: Index spaces used by the graph kernels.
VERTEX_SPACE = "vertex"
EDGE_SPACE = "edge"


@dataclass
class ArraySpec:
    """One distributed data array.

    Attributes:
        name: array name used by ``ctx.read``/``ctx.write``.
        space: index space that distributes the array ("vertex", "edge", ...).
        entry_bytes: storage per element, used for scratchpad sizing.
    """

    name: str
    space: str
    entry_bytes: int = 4


class DalorexProgram:
    """Collection of array and task declarations forming one kernel program."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.arrays: Dict[str, ArraySpec] = {}
        self.tasks: List[Task] = []
        self._task_by_name: Dict[str, Task] = {}

    # ----------------------------------------------------------------- arrays
    def add_array(self, name: str, space: str, entry_bytes: int = 4) -> ArraySpec:
        """Declare a distributed array."""
        if name in self.arrays:
            raise ProgramError(f"array {name!r} already declared")
        spec = ArraySpec(name=name, space=space, entry_bytes=entry_bytes)
        self.arrays[name] = spec
        return spec

    def array_space(self, name: str) -> str:
        if name not in self.arrays:
            raise ProgramError(f"unknown array {name!r}; known: {sorted(self.arrays)}")
        return self.arrays[name].space

    def spaces(self) -> List[str]:
        """Distinct index spaces referenced by the declared arrays and tasks."""
        result = {spec.space for spec in self.arrays.values()}
        result.update(task.route_space for task in self.tasks)
        return sorted(result)

    # ------------------------------------------------------------------ tasks
    def add_task(
        self,
        name: str,
        handler: Callable,
        route_space: str,
        num_params: int,
        iq_capacity: int = 64,
    ) -> Task:
        """Declare a task; tasks execute on the tile owning their routing index."""
        if name in self._task_by_name:
            raise ProgramError(f"task {name!r} already declared")
        task = Task(
            task_id=len(self.tasks),
            name=name,
            handler=handler,
            route_space=route_space,
            num_params=num_params,
            iq_capacity=iq_capacity,
        )
        self.tasks.append(task)
        self._task_by_name[name] = task
        return task

    def task(self, name: str) -> Task:
        if name not in self._task_by_name:
            raise ProgramError(f"unknown task {name!r}; known: {sorted(self._task_by_name)}")
        return self._task_by_name[name]

    def task_by_id(self, task_id: int) -> Task:
        if task_id < 0 or task_id >= len(self.tasks):
            raise ProgramError(f"task id {task_id} out of range")
        return self.tasks[task_id]

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def iq_capacities(self) -> Dict[int, int]:
        """Input-queue capacity per task ID (used to build tiles)."""
        return {task.task_id: task.iq_capacity for task in self.tasks}

    def dispatch_table(self) -> tuple:
        """Kernel dispatch table: the program's tasks as a flat tuple indexed
        by ``task_id`` (ids are dense by construction).  The engines index
        this on every dispatch instead of calling :meth:`task_by_id`."""
        return tuple(self.tasks)

    # ------------------------------------------------------------- validation
    def validate(self, known_spaces: Optional[List[str]] = None) -> None:
        """Check internal consistency (and optionally that spaces are bound)."""
        if not self.tasks:
            raise ProgramError(f"program {self.name!r} declares no tasks")
        for task in self.tasks:
            if known_spaces is not None and task.route_space not in known_spaces:
                raise ProgramError(
                    f"task {task.name!r} routes on unknown space {task.route_space!r}"
                )
        if known_spaces is not None:
            for spec in self.arrays.values():
                if spec.space not in known_spaces:
                    raise ProgramError(
                        f"array {spec.name!r} lives in unknown space {spec.space!r}"
                    )

    def describe(self) -> str:
        """Human-readable program listing (arrays and tasks)."""
        lines = [f"program {self.name}"]
        for spec in self.arrays.values():
            lines.append(f"  array {spec.name} [{spec.space}] {spec.entry_bytes}B")
        for task in self.tasks:
            lines.append(
                f"  task {task.name} (id={task.task_id}) routed by {task.route_space}, "
                f"{task.num_params} params, IQ={task.iq_capacity}"
            )
        return "\n".join(lines)
