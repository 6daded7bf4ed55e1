"""Exception hierarchy contracts."""

import pytest

from repro.util.errors import (
    ClusterError,
    DeadlockError,
    HMPIError,
    HMPIStateError,
    MachineFailure,
    MappingError,
    MPICommError,
    MPIError,
    MPIGroupError,
    PMDLError,
    PMDLRuntimeError,
    PMDLSemanticError,
    PMDLSyntaxError,
    ReproError,
)


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for exc in (
            ClusterError, MPIError, MPICommError, MPIGroupError,
            DeadlockError, PMDLError, PMDLSyntaxError,
            PMDLSemanticError, PMDLRuntimeError, HMPIError, HMPIStateError,
            MappingError,
        ):
            assert issubclass(exc, ReproError)

    def test_mpi_family(self):
        for exc in (MPICommError, MPIGroupError, DeadlockError):
            assert issubclass(exc, MPIError)

    def test_pmdl_family(self):
        for exc in (PMDLSyntaxError, PMDLSemanticError, PMDLRuntimeError):
            assert issubclass(exc, PMDLError)

    def test_hmpi_family(self):
        assert issubclass(HMPIStateError, HMPIError)
        assert issubclass(MappingError, HMPIError)

    def test_machine_failure_is_mpi_error(self):
        assert issubclass(MachineFailure, MPIError)


class TestMachineFailure:
    def test_carries_machine_and_time(self):
        mf = MachineFailure("ws03", 1.25)
        assert mf.machine == "ws03"
        assert mf.vtime == 1.25
        assert "ws03" in str(mf)
        assert "1.25" in str(mf)


class TestPMDLSyntaxError:
    def test_carries_position(self):
        err = PMDLSyntaxError("unexpected token", line=3, column=14)
        assert err.line == 3
        assert err.column == 14
        assert "line 3" in str(err)

    def test_catchable_as_pmdl_error(self):
        with pytest.raises(PMDLError):
            raise PMDLSyntaxError("boom", 1, 1)
