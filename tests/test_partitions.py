import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nucleus import partitions
from nucleus.partitions import (
    EnumerationConstraint,
    Partition,
    decay_capacity,
    decay_chain,
    decay_step,
    enumerate_partitions,
    fuse,
    is_ground_state,
    is_nuclear,
    iter_parts,
    multiplicity,
)

from oracles import all_partitions, partition_counts, reverse_lex_partitions

NUCLEAR = EnumerationConstraint(min_part=2)


def nuclear_partitions(n):
    return [q for q in all_partitions(n) if 1 not in q]


# --- the Partition value type ---

def test_partition_basics():
    p = Partition([5, 2])
    assert p.parts == (5, 2)
    assert len(p) == 2
    assert p[0] == 5
    assert list(p) == [5, 2]
    assert p == Partition((5, 2))
    assert hash(p) == hash(Partition([5, 2]))
    assert str(p) == "(5,2)"


def test_empty_partition():
    empty = Partition()
    assert len(empty) == 0
    assert str(empty) == "()"


@pytest.mark.parametrize("bad", [[2, 5], [3, 0], [1, -1], [2.5]])
def test_partition_rejects_invalid_parts(bad):
    with pytest.raises(ValueError):
        Partition(bad)


@pytest.mark.parametrize("text,parts", [
    ("5,2", (5, 2)),
    ("[5,2]", (5, 2)),
    ("(5,2)", (5, 2)),
    (" 4 , 2 , 2 ", (4, 2, 2)),
    ("7", (7,)),
    ("", ()),
    ("()", ()),
])
def test_parse(text, parts):
    assert Partition.parse(text).parts == parts


@pytest.mark.parametrize("text", ["2,5", "a,b", "3,,2", "[5,2", "0"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        Partition.parse(text)


@given(st.lists(st.integers(1, 30), min_size=0, max_size=10))
def test_str_parse_round_trip(parts):
    p = Partition(sorted(parts, reverse=True))
    assert Partition.parse(str(p)) == p


def test_partition_is_the_tuple_of_its_parts():
    p = Partition([5, 2])
    assert p == (5, 2) and (5, 2) == p
    assert hash(p) == hash((5, 2))
    for other in [(5, 2), (5, 1, 1), (5, 3), (6,), (4, 2, 1)]:
        q = Partition(other)
        assert (p <= q, p > q, p >= q) == ((5, 2) <= other, (5, 2) > other, (5, 2) >= other), other
    assert not hasattr(p, "__dict__")


# --- enumeration ---

def test_enumerate_nuclear_6_order():
    got = [p.parts for p in enumerate_partitions(6, NUCLEAR)]
    assert got == [(6,), (4, 2), (3, 3), (2, 2, 2)]


@pytest.mark.parametrize("constraint", [
    None,
    NUCLEAR,
    EnumerationConstraint(min_part=3),
    EnumerationConstraint(min_part=5),
])
def test_enumerate_zero_yields_exactly_empty(constraint):
    assert [p.parts for p in enumerate_partitions(0, constraint)] == [()]


def test_enumerate_nuclear_9_count():
    assert sum(1 for _ in enumerate_partitions(9, NUCLEAR)) == 8


def test_enumerate_min_part_above_n_is_empty():
    assert list(enumerate_partitions(5, EnumerationConstraint(min_part=6))) == []


def test_enumerate_negative_rejected():
    """Refused at the call, as iter_parts refuses, not when first read."""
    with pytest.raises(ValueError, match="^cannot partition a negative total, got -1$"):
        enumerate_partitions(-1)


@pytest.mark.parametrize("constraint", [
    None,
    NUCLEAR,
    EnumerationConstraint(3),
    EnumerationConstraint(4),
])
def test_enumerate_partitions_equals_iter_parts(constraint):
    for n in range(13):
        assert list(enumerate_partitions(n, constraint)) == list(iter_parts(n, constraint)), n


def _held_bytes(name):
    """Traced bytes of list(name(45, NUCLEAR)), in a fresh interpreter: in
    one process the tuples freed by an earlier list would be reused from
    the free list and hide most of the later list's allocations."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = ("import tracemalloc\n"
             f"from nucleus.partitions import NUCLEAR, {name}\n"
             "tracemalloc.start()\n"
             f"held = list({name}(45, NUCLEAR))\n"
             "print(len(held), tracemalloc.get_traced_memory()[0])\n")
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    count, size = map(int, result.stdout.split())
    assert count == 13959
    return size


def test_held_partitions_are_one_object_each():
    """Holding the 13,959 nuclear partitions of 45 as Partition values costs
    little more than holding the plain tuples (1.07x measured on CPython
    3.11), not a wrapper object around each tuple (1.35x)."""
    assert _held_bytes("enumerate_partitions") <= 1.15 * _held_bytes("iter_parts")


def test_constraint_validation():
    """A least part below 1 is refused when the walk is asked for, however
    the constraint was built: by position, by keyword or by _replace."""
    assert EnumerationConstraint._fields == ("min_part",)
    for constraint in (EnumerationConstraint(0), EnumerationConstraint(min_part=-1),
                       NUCLEAR._replace(min_part=0)):
        with pytest.raises(ValueError, match=f"^min_part must be >= 1, got {constraint.min_part}$"):
            iter_parts(5, constraint)
        with pytest.raises(ValueError, match="^min_part must be >= 1"):
            enumerate_partitions(5, constraint)


def test_enumeration_completeness_to_30():
    counts = partition_counts(30)
    for n in range(31):
        seen = list(iter_parts(n))
        assert len(seen) == counts[n]
        assert len(set(seen)) == counts[n]
        assert all(sum(q) == n for q in seen)


def test_enumeration_is_reverse_lexicographic():
    for n in range(16):
        for constraint in (None, NUCLEAR):
            stream = list(iter_parts(n, constraint))
            assert all(a > b for a, b in zip(stream, stream[1:]))


def test_enumeration_matches_reference_order():
    """The iterative generator yields the recursive reference's stream, in
    order, for n <= 30, unconstrained and with every least part 1..31."""
    grid = [None, NUCLEAR, *map(EnumerationConstraint, range(1, 32))]
    for constraint in grid:
        for n in range(31):
            assert list(iter_parts(n, constraint)) == list(reverse_lex_partitions(n, constraint)), (n, constraint)


def test_enumeration_across_the_tail_table_seam():
    """For n = 21..30 the walk yields the recursive reference's stream in
    order with least part 1, 2 and 3.  n = 22 is where an earlier
    enumerator joined its heads to a table of small partitions; the walk
    has no such seam and must not grow one."""
    for constraint in map(EnumerationConstraint, (1, 2, 3)):
        for n in range(21, 31):
            assert list(iter_parts(n, constraint)) == list(reverse_lex_partitions(n, constraint)), (n, constraint)


def test_enumeration_memory_is_bounded():
    """Draining all 134,647 nuclear partitions of 60 keeps the traced peak
    far below the 17.7 MB that keeping them takes.  Measured peak: 309 KB on
    CPython 3.11 in a fresh process, of which the walk's stack of at most
    58 prefixes is a small part.  The tuple free list of 3.11 and 3.12 can
    keep up to 2,000 freed tuples of each length (400 KB at 20 parts); the
    bound sits above that cap."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_parts(60, NUCLEAR))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 134647
    assert peak < 512 * 1024


def _walk_pushes(n, constraint):
    """The partitions iter_parts yields for n, and the number of prefixes
    its walk pushed meanwhile, counted by a line tracer on the push line."""
    code = partitions._walk.__code__
    lines, first = inspect.getsourcelines(code)
    (push_line,) = [first + i for i, line in enumerate(lines) if "push((" in line]
    pushes = 0

    def on_line(frame, event, arg):
        nonlocal pushes
        pushes += event == "line" and frame.f_lineno == push_line
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        stream = list(iter_parts(n, constraint))
    finally:
        sys.settrace(previous)
    return stream, pushes


@pytest.mark.parametrize("constraint", [NUCLEAR, EnumerationConstraint(3), EnumerationConstraint(4)],
                         ids=["nuclear", "lo3", "lo4"])
def test_walk_pushes_no_dead_end_prefix(constraint):
    """With parts >= 2 some prefixes cannot be completed, e.g. (5,) of 6;
    the ZS1 feasibility test keeps the walk from pushing them, so every
    pushed prefix is a prefix of a yielded partition and the pushes are
    exactly the distinct non-empty prefixes."""
    for n in range(31):
        stream, pushes = _walk_pushes(n, constraint)
        prefixes = {parts[:i] for parts in stream for i in range(1, len(parts) + 1)}
        assert pushes == len(prefixes), (n, constraint)


def test_enumeration_deterministic():
    c = EnumerationConstraint(min_part=3)
    assert list(iter_parts(23, c)) == list(iter_parts(23, c))


@given(n=st.integers(0, 20), c=st.builds(EnumerationConstraint, st.integers(1, 22)))
def test_constraint_soundness(n, c):
    """Every part yielded is at least the least part, the stream is in
    strictly decreasing (reverse-lexicographic) order, and filtering the
    unconstrained stream gives the identical set."""
    seen = list(iter_parts(n, c))
    assert all(min(q, default=c.min_part) >= c.min_part for q in seen)
    assert all(a > b for a, b in zip(seen, seen[1:]))
    assert set(seen) == {q for q in all_partitions(n) if min(q, default=c.min_part) >= c.min_part}


# --- classification ---

def test_is_nuclear():
    assert is_nuclear(Partition([4, 2]))
    assert not is_nuclear(Partition([3, 2, 1, 1]))
    assert is_nuclear(Partition())
    assert is_nuclear([6])


def test_is_ground_state():
    assert is_ground_state(Partition([2, 2]))
    assert is_ground_state([3, 3, 2])
    assert not is_ground_state(Partition([6]))
    assert not is_ground_state(Partition())
    assert not is_ground_state([2, 1, 1])  # not nuclear


def test_repeated_divisor_blocks_are_ground_states():
    for k in range(4, 25):
        for d in range(2, k):
            if k % d == 0:
                assert is_ground_state(Partition([d] * (k // d)))


def test_multiplicity():
    assert multiplicity(Partition([3, 2, 1, 1]), 1) == 2
    assert multiplicity(Partition([3, 2, 1, 1]), 5) == 0
    assert multiplicity(Partition([2, 2, 2]), 2) == 3
    with pytest.raises(ValueError):
        multiplicity(Partition([2]), 0)


# --- fuse and decay ---

def test_fuse_examples():
    assert fuse(Partition([3, 2, 1, 1])) == Partition([5, 2])
    assert fuse(Partition([1, 1, 1, 1])) == Partition([4])
    assert fuse(Partition([4, 2, 1])) == Partition([5, 2])


def test_fuse_rejects_nuclear():
    with pytest.raises(ValueError):
        fuse(Partition([4, 2]))


def test_decay_capacity():
    assert decay_capacity(Partition([5, 2])) == 3
    assert decay_capacity(Partition([6])) == 5
    assert decay_capacity(Partition([2, 2, 2])) == 0
    with pytest.raises(ValueError):
        decay_capacity(Partition())
    with pytest.raises(ValueError, match=r"^\(2,1\) is not nuclear: 1 part\(s\) equal 1$"):
        decay_capacity(Partition([2, 1]))


def test_decay_step_examples():
    assert decay_step(Partition([5, 2]), 1) == Partition([4, 2, 1])
    assert decay_step(Partition([5, 2]), 3) == Partition([2, 2, 1, 1, 1])
    assert decay_step(Partition([6]), 5) == Partition([1] * 6)


@pytest.mark.parametrize("mu,j", [([5, 2], 0), ([5, 2], 4), ([3, 3], 1)])
def test_decay_step_rejects_bad_j(mu, j):
    with pytest.raises(ValueError):
        decay_step(Partition(mu), j)


def test_decay_step_rejects_non_nuclear():
    with pytest.raises(ValueError, match=r"^\(3,1\) is not nuclear: 1 part\(s\) equal 1$"):
        decay_step(Partition([3, 1]), 1)


def test_decay_chain_examples():
    chain = decay_chain(Partition([5, 2]))
    assert [q.parts for q in chain] == [(4, 2, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1)]
    assert decay_chain(Partition([3, 3])) == []
    assert len(decay_chain(Partition([6]))) == 5


@given(st.lists(st.integers(2, 15), min_size=1, max_size=8))
def test_fuse_inverts_decay(parts):
    mu = Partition(sorted(parts, reverse=True))
    for j in range(1, decay_capacity(mu) + 1):
        lam = decay_step(mu, j)
        assert not is_nuclear(lam)
        assert sum(lam) == sum(mu)
        assert fuse(lam) == mu


@given(st.lists(st.integers(1, 15), min_size=2, max_size=8).filter(lambda xs: 1 in xs))
def test_fuse_output_is_nuclear_same_size(parts):
    # size 1 is the lone degenerate: (1) fuses to itself and stays non-nuclear
    lam = Partition(sorted(parts, reverse=True))
    mu = fuse(lam)
    assert is_nuclear(mu)
    assert sum(mu) == sum(lam)


def test_fuse_degenerates_at_size_1():
    assert fuse(Partition([1])) == Partition([1])


def test_fuse_decay_inversion_exhaustive_to_25():
    for n in range(2, 26):
        for mu_parts in nuclear_partitions(n):
            mu = Partition(mu_parts)
            for j in range(1, decay_capacity(mu) + 1):
                assert fuse(decay_step(mu, j)) == mu


def test_decay_tiling_exhaustive_to_25():
    """Decay chains over the nuclear partitions of n tile the non-nuclear
    partitions of n exactly, for n = 0 and 2..25.  At n = 1 the lone
    partition (1) is non-nuclear but has no nuclear parent, which is the
    same degeneracy that restricts the gap-sum formula to n >= 2."""
    for n in [0] + list(range(2, 26)):
        produced = []
        for mu_parts in nuclear_partitions(n):
            if mu_parts:
                produced.extend(q.parts for q in decay_chain(Partition(mu_parts)))
        non_nuclear = {q for q in all_partitions(n) if 1 in q}
        assert len(produced) == len(set(produced)), f"duplicate decay product at n={n}"
        assert set(produced) == non_nuclear, f"decay tiling broken at n={n}"


def test_decay_tiling_degenerates_at_1():
    assert nuclear_partitions(1) == []
    assert {q for q in all_partitions(1) if 1 in q} == {(1,)}
