"""Finite descriptions of 2-complete abelian groups.

A group is a direct sum of summands, each either the 2-adic integers (encoded
as 0 and written Z2) or a cyclic 2-group of order a power of 2. The canonical
form lists 2-adic summands first, then cyclic orders in descending order.
"""

from __future__ import annotations

from .records import Record, _set


class GroupDescriptorError(ValueError):
    pass


def is_power_of_two(n: int) -> bool:
    """The orders of the cyclic summands: powers of 2 that are at least 2."""
    return n >= 2 and (n & (n - 1)) == 0


def summand_str(n: int) -> str:
    """Z2 for the 2-adic summand (order 0), Z/n for a cyclic one."""
    return "Z2" if n == 0 else f"Z/{n}"


class GroupDescriptor(Record, compared=("summands",)):
    """Multiset of summands in canonical order; empty means the trivial group.

    Its string, such as ``Z2+Z/8``, is built once with the descriptor and
    takes no part in equality or hashing.
    """

    __slots__ = ("summands", "_str")

    def __init__(self, summands: tuple[int, ...]):
        for n in summands:
            if n != 0 and not is_power_of_two(n):
                raise GroupDescriptorError(f"summand {n} is neither 0 (2-adics) nor a power of 2 >= 2")
        canon = tuple(sorted(summands, key=lambda n: (n != 0, -n)))
        _set(self, "summands", canon)
        _set(self, "_str", "+".join(map(summand_str, canon)) if canon else "0")

    @property
    def is_trivial(self) -> bool:
        return not self.summands

    def __str__(self) -> str:
        return self._str


TRIVIAL_GROUP = GroupDescriptor(())
Z2_ADIC = GroupDescriptor((0,))
Z_MOD_2 = GroupDescriptor((2,))
