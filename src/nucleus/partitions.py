"""Partition values, constrained enumeration, and the fuse/decay maps.

A partition here is always a weakly decreasing tuple of positive parts.
"Nuclear" partitions are those with no part equal to 1; they regenerate
all remaining partitions of the same size through decay (trading units
off the largest part for trailing 1's), with fusion as the inverse map.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class Partition(tuple):
    """A weakly decreasing tuple of positive integer parts.

    A Partition is the tuple of its parts: it equals and hashes as that
    plain tuple, orders as tuples do, and tuple's own methods (``+``,
    ``*``, slicing) return plain tuples.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)
        previous = None
        for part in parts:
            if not isinstance(part, int) or part < 1:
                raise ValueError(f"parts must be positive integers, got {part!r}")
            if previous is not None and part > previous:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
            previous = part
        return super().__new__(cls, parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse a literal like ``5,2``, ``[5,2]`` or ``(5,2)``."""
        body = text.strip()
        if body[:1] in ("(", "["):
            closer = ")" if body[0] == "(" else "]"
            if not body.endswith(closer):
                raise ValueError(f"unbalanced brackets in partition literal {text!r}")
            body = body[1:-1]
        body = body.strip()
        if not body:
            return cls()
        try:
            parts = [int(piece.strip()) for piece in body.split(",")]
        except ValueError:
            raise ValueError(f"partition literal must be comma-separated integers, got {text!r}") from None
        return cls(parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        """Sum of the parts; 0 for the empty partition."""
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(part) for part in self) + ")"


def _trusted(parts: tuple[int, ...]) -> Partition:
    # Construction bypass for already-validated tuples; enumeration yields
    # millions of values, so skipping the __new__ checks matters.
    return tuple.__new__(Partition, parts)


def _as_parts(value) -> Partition:
    if isinstance(value, Partition):
        return value
    return Partition(value)


# The fields of EnumerationConstraint.  A NamedTuple body may not define
# __new__, so the checks live on the subclass.
class _Bounds(NamedTuple):
    min_part: int
    max_part: int | None
    forbidden_part: int | None


class EnumerationConstraint(_Bounds):
    """Part bounds for enumeration.

    Covers the three restricted families in one record: ``min_part=2``
    selects nuclear partitions, ``forbidden_part=k`` the partitions with
    no part k, and ``max_part=m`` the bounded-part variants.
    """

    __slots__ = ()

    def __new__(cls, min_part: int = 1, max_part: int | None = None, forbidden_part: int | None = None):
        if min_part < 1:
            raise ValueError(f"min_part must be >= 1, got {min_part}")
        if max_part is not None and max_part < min_part:
            raise ValueError(f"max_part {max_part} is below min_part {min_part}")
        if forbidden_part is not None and forbidden_part < 1:
            raise ValueError(f"forbidden_part must be >= 1, got {forbidden_part}")
        return super().__new__(cls, min_part, max_part, forbidden_part)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it runs the checks too.
        return cls(*iterable)

    def satisfies(self, partition) -> bool:
        """True iff every part obeys the bounds."""
        for part in _as_parts(partition):
            if part < self.min_part or part == self.forbidden_part:
                return False
            if self.max_part is not None and part > self.max_part:
                return False
        return True


NUCLEAR = EnumerationConstraint(min_part=2)
UNRESTRICTED = EnumerationConstraint()


def iter_parts(n: int, constraint: EnumerationConstraint | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of ``n`` under ``constraint`` as raw tuples.

    Order is reverse-lexicographic on part sequences, so ``(n,)`` comes
    first and the all-minimal partition last.  ``n = 0`` yields exactly
    the empty tuple under any constraint; a constraint impossible to meet
    yields nothing.

    The partitions are walked depth first, one prefix at a time, and a
    prefix is yielded once nothing of ``n`` is left.  Memory is a stack
    of at most 2n prefixes; it never grows with the number of partitions.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative total, got {n}")
    c = constraint or UNRESTRICTED
    lo = c.min_part + (c.forbidden_part == c.min_part)
    cap = n if c.max_part is None else min(n, c.max_part)
    stream = _walk(n, lo, cap)
    forbidden = c.forbidden_part
    if forbidden is None or forbidden < lo:
        return stream
    # A forbidden part above lo is dropped from the [lo, cap] stream; the
    # order of what remains is unchanged.
    return (parts for parts in stream if forbidden not in parts)


def _walk(n, lo, cap):
    # Depth-first over (prefix, remainder s, top part).  Children are
    # pushed smallest part first, so the largest is popped first; a part a
    # is pushed only if the d = s - a left after it still splits into parts
    # in [lo, a], which holds iff ceil(d / a) * lo <= d (the feasibility
    # test of Zoghbi & Stojmenovic's ZS1), so no prefix is a dead end.
    stack = [((), n, cap)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, s, top = pop()
        if not s:
            yield prefix
            continue
        for a in range(lo, min(top, s) + 1):
            d = s - a
            if (d + a - 1) // a * lo <= d:
                push((prefix + (a,), d, a))


def enumerate_partitions(n: int, constraint: EnumerationConstraint | None = None) -> Iterator[Partition]:
    """Yield Partition values; see iter_parts for order and guarantees."""
    for parts in iter_parts(n, constraint):
        yield _trusted(parts)


def is_nuclear(partition) -> bool:
    """True iff no part equals 1.  The empty partition qualifies."""
    return 1 not in _as_parts(partition)


def is_ground_state(partition) -> bool:
    """True iff nuclear with at least two parts and the top two equal.

    Ground states have decay capacity 0: with the two largest parts tied
    there is no slack to shed into 1's.
    """
    parts = _as_parts(partition)
    return bool(parts) and 1 not in parts and _capacity(parts) == 0


def multiplicity(partition, k: int) -> int:
    """Number of parts equal to ``k``."""
    if k < 1:
        raise ValueError(f"part values are positive, got {k}")
    return _as_parts(partition).count(k)


def fuse(partition) -> Partition:
    """Delete all 1's and add their count to the largest remaining part.

    Defined only on non-nuclear input; the result has the same size and
    is nuclear for every size except 1.  An all-1's partition fuses to
    the single-part partition, so (1) fuses to itself: size 1 has no
    nuclear partition to land on.
    """
    parts = _as_parts(partition)
    ones = parts.count(1)
    if ones == 0:
        raise ValueError(f"fuse needs a part equal to 1, got {parts}")
    rest = parts[:-ones]
    if rest:
        return _trusted((rest[0] + ones,) + rest[1:])
    return _trusted((ones,))


def decay_capacity(partition) -> int:
    """Number of distinct decay products of a nuclear partition.

    The gap between the two largest parts, except the single-part
    partition of n which decays n-1 times (down to all 1's).
    """
    parts = _as_parts(partition)
    if not parts:
        raise ValueError("the empty partition does not decay")
    if 1 in parts:
        raise ValueError(f"decay is defined on nuclear partitions only, got {parts}")
    return _capacity(parts)


def _capacity(parts: tuple[int, ...]) -> int:
    # The top-pair rule, for nonempty nuclear parts: the largest part
    # sheds units into 1's until it would drop below the next part, or
    # below 1 for a single part.
    return parts[0] - (parts[1] if len(parts) > 1 else 1)


def decay_step(partition, j: int) -> Partition:
    """Lower the largest part by ``j`` and append ``j`` parts equal to 1.

    Requires nuclear input and 1 <= j <= decay_capacity; the result is a
    non-nuclear partition of the same size.
    """
    parts = _as_parts(partition)
    cap = decay_capacity(parts)
    if not 1 <= j <= cap:
        raise ValueError(f"decay step must be in 1..{cap} for {parts}, got {j}")
    return _trusted((parts[0] - j,) + parts[1:] + (1,) * j)


def decay_chain(partition) -> list[Partition]:
    """All decay products, in step order; empty for a ground state."""
    mu = _as_parts(partition)
    return [decay_step(mu, j) for j in range(1, decay_capacity(mu) + 1)]

