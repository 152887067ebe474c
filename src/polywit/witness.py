"""Witness assignments: one matrix per noncommuting variable and one per
commuting variable, all of a common size.  The public constructor checks
the commuting family's pairwise commutation exactly; the construction
builds its assignments, whose U's commute by construction, through
``_trusted``."""

from __future__ import annotations

from .errors import ArityError, CommutativityError, DimensionError
from .matrices import Matrix


class WitnessAssignment:
    """Matrices for the variables X_i (``x_assign``) and U_w (``u_assign``).

    ``trace`` optionally records the reduction history that produced the
    assignment, one ``{"k", "omegabar", "branch"}`` dict per level, top
    level first.  It is bookkeeping only and takes no part in equality.
    """

    __slots__ = ("size", "x_assign", "u_assign", "trace")

    def __init__(self, size: int, x_assign, u_assign, trace=None):
        if size < 1:
            raise DimensionError("witness size must be positive")
        self.size = size
        self.x_assign = dict(x_assign)
        self.u_assign = dict(u_assign)
        self.trace = list(trace) if trace is not None else []
        for label, mapping in (("X", self.x_assign), ("U", self.u_assign)):
            for key, mat in mapping.items():
                if not isinstance(mat, Matrix) or mat.size != size:
                    raise DimensionError(
                        f"assignment for {label}{key} is not a {size}x{size} matrix"
                    )
        keys = sorted(self.u_assign)
        for i, w1 in enumerate(keys):
            for w2 in keys[i + 1 :]:
                m1, m2 = self.u_assign[w1], self.u_assign[w2]
                if m1 * m2 != m2 * m1:
                    raise CommutativityError(
                        f"assignments for U{w1} and U{w2} do not commute"
                    )

    @classmethod
    def _trusted(cls, size: int, x_assign: dict, u_assign: dict):
        """Assignment built by the construction, whose matrices all have
        the given size and whose U's commute by construction; nothing is
        checked, and the maps are taken as they are, not copied."""
        w = object.__new__(cls)
        w.size = size
        w.x_assign = x_assign
        w.u_assign = u_assign
        w.trace = []
        return w

    def x(self, i: int) -> Matrix:
        try:
            return self.x_assign[i]
        except KeyError:
            raise ArityError(f"no matrix assigned to X{i}") from None

    def u(self, omega: int) -> Matrix:
        try:
            return self.u_assign[omega]
        except KeyError:
            raise ArityError(f"no matrix assigned to U{omega}") from None

    def with_u(self, omega: int, mat: Matrix) -> "WitnessAssignment":
        """Copy of the assignment with one commuting slot replaced or added."""
        u_new = dict(self.u_assign)
        u_new[omega] = mat
        return WitnessAssignment(self.size, self.x_assign, u_new)

    def __eq__(self, other):
        if not isinstance(other, WitnessAssignment):
            return NotImplemented
        return (
            self.size == other.size
            and self.x_assign == other.x_assign
            and self.u_assign == other.u_assign
        )

    def __repr__(self):
        xs = ",".join(f"X{i}" for i in sorted(self.x_assign))
        us = ",".join(f"U{w}" for w in sorted(self.u_assign))
        return f"WitnessAssignment(size={self.size}, [{xs}], [{us}])"
