"""Property-based tests for the task input-queue columns of ``CoreState``.

``push_invocation`` / ``pop_invocation`` are the engines' only queue
operations, and their ``queue_pushed`` / ``queue_popped`` /
``queue_max_occupancy`` columns feed the invariant tracer's conservation
checks.  Every operation sequence is replayed against one ``deque`` per
``(tile, task)`` column.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import CoreState


@st.composite
def queue_scenarios(draw):
    """A small machine shape, per-task capacities, and an operation list.

    An operation is ``(tile, task, value)``: a push of ``value``, or a pop
    when ``value`` is None.  Capacities are small so pushes past them are
    common.
    """
    num_tiles = draw(st.integers(min_value=1, max_value=3))
    num_tasks = draw(st.integers(min_value=1, max_value=4))
    capacities = {
        task: draw(st.integers(min_value=1, max_value=4)) for task in range(num_tasks)
    }
    operations = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_tiles - 1),
                st.integers(min_value=0, max_value=num_tasks - 1),
                st.one_of(st.none(), st.integers()),
            ),
            max_size=200,
        )
    )
    return num_tiles, capacities, operations


class TestQueueColumnsModelEquivalence:
    @given(queue_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_behaves_like_one_deque_per_column(self, scenario):
        num_tiles, capacities, operations = scenario
        state = CoreState(num_tiles, capacities)
        num_tasks = state.num_tasks
        slots = num_tiles * num_tasks
        models = [deque() for _ in range(slots)]
        pushes = [0] * slots
        pops = [0] * slots
        high_water = [0] * slots
        for tile, task, value in operations:
            qi = tile * num_tasks + task
            model = models[qi]
            if value is not None:
                state.push_invocation(tile, task, value)  # never rejected
                model.append(value)
                pushes[qi] += 1
                high_water[qi] = max(high_water[qi], len(model))
            elif model:
                assert state.pop_invocation(tile, task) == model.popleft()
                pops[qi] += 1
        assert [list(queue) for queue in state.queues] == [list(m) for m in models]
        assert state.queue_pushed == pushes
        assert state.queue_popped == pops
        assert state.queue_max_occupancy == high_water
        for qi in range(slots):
            assert state.queue_pushed[qi] - state.queue_popped[qi] == len(state.queues[qi])
        for tile in range(num_tiles):
            base = tile * num_tasks
            assert state.tile_is_idle(tile) == (not any(models[base : base + num_tasks]))

    @given(st.integers(min_value=1, max_value=4), st.lists(st.integers(), max_size=64))
    @settings(max_examples=80, deadline=None)
    def test_drain_returns_fifo_order_past_capacity(self, capacity, values):
        state = CoreState(1, {0: capacity})
        for value in values:
            state.push_invocation(0, 0, value)
        assert state.queue_max_occupancy[0] == len(values)
        drained = [state.pop_invocation(0, 0) for _ in values]
        assert drained == list(values)
        assert state.tile_is_idle(0)
        assert state.queue_pushed[0] == state.queue_popped[0] == len(values)
