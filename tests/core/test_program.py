"""Unit tests for program, array and task declarations."""

import pytest

from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.core.task import Task
from repro.errors import ProgramError


def noop_handler(ctx):
    return None


class TestTask:
    def test_flits_per_invocation(self):
        task = Task(0, "T1", noop_handler, VERTEX_SPACE, num_params=3)
        assert task.flits_per_invocation == 3

    def test_zero_params_rejected(self):
        with pytest.raises(ValueError):
            Task(0, "T1", noop_handler, VERTEX_SPACE, num_params=0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Task(0, "T1", noop_handler, VERTEX_SPACE, num_params=1, iq_capacity=0)


class TestProgram:
    def build(self):
        program = DalorexProgram("demo")
        program.add_array("dist", VERTEX_SPACE)
        program.add_array("edge_dst", EDGE_SPACE)
        program.add_task("T1", noop_handler, VERTEX_SPACE, num_params=1, iq_capacity=32)
        program.add_task("T2", noop_handler, EDGE_SPACE, num_params=3, iq_capacity=128)
        return program

    def test_task_lookup(self):
        program = self.build()
        assert program.task("T1").task_id == 0
        assert program.task_by_id(1).name == "T2"
        assert program.num_tasks == 2

    def test_duplicate_task_rejected(self):
        program = self.build()
        with pytest.raises(ProgramError):
            program.add_task("T1", noop_handler, VERTEX_SPACE, num_params=1)

    def test_duplicate_array_rejected(self):
        program = self.build()
        with pytest.raises(ProgramError):
            program.add_array("dist", VERTEX_SPACE)

    def test_unknown_task_rejected(self):
        with pytest.raises(ProgramError):
            self.build().task("T9")

    def test_unknown_task_id_rejected(self):
        with pytest.raises(ProgramError):
            self.build().task_by_id(5)

    def test_array_space_lookup(self):
        program = self.build()
        assert program.array_space("dist") == VERTEX_SPACE
        with pytest.raises(ProgramError):
            program.array_space("nonexistent")

    def test_spaces_and_counts(self):
        program = self.build()
        assert program.spaces() == [EDGE_SPACE, VERTEX_SPACE]

    def test_iq_capacities(self):
        assert self.build().iq_capacities() == {0: 32, 1: 128}

    def test_validate_against_known_spaces(self):
        program = self.build()
        program.validate(known_spaces=[VERTEX_SPACE, EDGE_SPACE])
        with pytest.raises(ProgramError):
            program.validate(known_spaces=[VERTEX_SPACE])

    def test_empty_program_invalid(self):
        with pytest.raises(ProgramError):
            DalorexProgram("empty").validate()

    def test_describe_lists_tasks_and_arrays(self):
        text = self.build().describe()
        assert "T1" in text and "dist" in text
