"""Simulated message-passing substrate (mpi4py-flavoured API)."""

from .collectives import COLLECTIVE_TAG_BASE
from .communicator import CollectiveConfig, Comm, MPIProgram, mpi_run
from .datatypes import DOUBLE, ENVELOPE, INT, doubles, matrix_bytes, nbytes_of
from .errors import CollectiveError, MPIError, RankError

__all__ = [
    "COLLECTIVE_TAG_BASE",
    "CollectiveConfig",
    "CollectiveError",
    "Comm",
    "DOUBLE",
    "ENVELOPE",
    "INT",
    "MPIError",
    "MPIProgram",
    "RankError",
    "doubles",
    "matrix_bytes",
    "mpi_run",
    "nbytes_of",
]
