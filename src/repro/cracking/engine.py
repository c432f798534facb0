"""Crack kernels: in-place partitioning of numpy arrays.

These are the physical operators behind database cracking [12]:
``crack_in_two`` partitions a piece around one pivot (elements < pivot
first), ``crack_in_three`` around a closed-open range (used when both
query bounds fall into the same piece, saving one pass).  They move
values only: every query is a single-column range select, so nothing
else has to stay aligned with a cracked piece.

The kernels return the split position(s) plus a :class:`CostCharge`
counting every element touched, which the clock prices.

Hot-path design.  The kernels are *selection*-based: a cracked piece
is an unordered bag -- only the split position is semantically
meaningful -- so instead of the original stable mask/fancy-index
shuffle (two boolean gathers plus two write-backs per crack) they find
each split's rank and run ``ndarray.partition`` (introselect) there,
in place -- no temporaries, no write-back; ~3x faster than any
gather-based stable partition.  A piece below ``SAMPLE_THRESHOLD``
rows counts its left side (``< pivot``) and selects at that split.  A
bigger piece does not count the whole piece, because that pass is the
one that pulls it in from memory: a strided sample of ``SAMPLE_SIZE``
elements estimates each pivot's rank, a band of six standard
deviations plus one stride brackets the split(s), the piece is
selected at both band edges, two guard elements prove that the band
holds every split, and only the band is counted and selected.  A band
that reaches a piece edge or fails a guard falls back to counting
first, so no split depends on the sample.  Counts stream through a
``MASK_CHUNK``-sized :class:`CrackScratch` mask, so no crack allocates
a mask and no index keeps one the size of its largest piece.

Split positions, cost charges, tape counts and the per-piece value
multisets are identical to the original kernel; only the (deliberately
unspecified) element order inside a piece differs.

``crack_in_two_batch`` and ``crack_spans_batch`` crack many disjoint
pieces in one call -- the physical half of the paper's "multiple
tuning actions in one go" -- by validating the batch once and looping
over the single-piece partitions above.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CrackerError
from repro.simtime.charge import CostCharge
from repro.storage.dtypes import Key

#: Pieces at/above this many rows evaluate their classification mask
#: into a reusable scratch buffer instead of allocating a fresh one.
CHUNK_THRESHOLD = 16_384
#: The scratch mask's size: a larger piece is counted in chunks of this
#: many rows, so no index keeps a mask the size of its largest piece.
MASK_CHUNK = 262_144
#: Value-only pieces at/above this many rows find their splits by
#: sampled rank (:func:`_rank_band`) instead of counting first.
SAMPLE_THRESHOLD = 262_144
#: Elements in the strided sample that estimates a pivot's rank.
SAMPLE_SIZE = 4_096

_BOOL = np.dtype(bool)


class CrackScratch:
    """Reusable partition buffers (amortized growth, never shrunk).

    One scratch serves one index (all structural operations on a
    :class:`~repro.cracking.index.CrackerIndex` run under its monitor
    lock); a kernel called without one makes its own.  Buffers are
    keyed by name; the classification mask never grows beyond
    ``MASK_CHUNK`` elements.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype: np.dtype) -> np.ndarray:
        """A buffer of at least ``size`` elements of ``dtype``."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            capacity = max(size, 2 * (0 if buf is None else buf.size))
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
        return buf


def _check_bounds(array: np.ndarray, start: int, end: int) -> None:
    if not 0 <= start <= end <= len(array):
        raise CrackerError(
            f"piece bounds [{start}, {end}) invalid for array of "
            f"{len(array)} rows"
        )


def _check_disjoint(array: np.ndarray, tasks: list, kernel: str) -> None:
    """Raise unless the ``(start, end, ...)`` pieces of a batch lie in
    ``array`` and are pairwise disjoint."""
    previous_end = 0
    for task in sorted(tasks, key=lambda t: (t[0], t[1])):
        start, end = task[0], task[1]
        _check_bounds(array, start, end)
        if end == start:
            continue  # empty pieces cannot overlap anything
        if start < previous_end:
            raise CrackerError(
                f"{kernel} pieces overlap: "
                f"[{start}, {end}) begins before {previous_end}"
            )
        previous_end = end


def _count_below(
    view: np.ndarray, pivot: Key, scratch: CrackScratch
) -> int:
    """Number of elements ``< pivot`` (above the threshold the piece
    streams through a ``MASK_CHUNK``-sized scratch mask, so large
    pieces never allocate a mask and never grow the scratch one).

    ``pivot`` is a key in the column's domain (a Python int for an
    integer column): numpy compares it with the piece exactly and
    without widening a narrowed piece.
    """
    if view.size < CHUNK_THRESHOLD:
        return int(np.count_nonzero(view < pivot))
    mask = scratch.get("mask", MASK_CHUNK, _BOOL)
    count = 0
    for lo in range(0, view.size, MASK_CHUNK):
        chunk = view[lo : lo + MASK_CHUNK]
        part = mask[: chunk.size]
        np.less(chunk, pivot, out=part)
        count += int(np.count_nonzero(part))
    return count


def _rank_band(
    view: np.ndarray, pivots: tuple[Key, ...]
) -> tuple[int, int] | None:
    """Positions ``(a, b)`` that bracket every split of ``view``.

    Each pivot's rank is estimated from a strided sample of about
    ``SAMPLE_SIZE`` elements and widened by six standard deviations of
    the estimate plus one stride; ``a`` is the lowest pivot's lower
    edge, ``b`` the highest's upper edge.  ``None`` when the band
    reaches an edge of the piece.  The band is only a guess: the caller
    checks it before trusting it.
    """
    size = view.size
    stride = size // SAMPLE_SIZE
    sample = view[::stride]
    taken = sample.size

    def edge(pivot: Key, side: int) -> int:
        below = int(np.count_nonzero(sample < pivot))
        share = below / taken
        sigma = size * math.sqrt(share * (1.0 - share) / taken)
        return below * size // taken + side * (int(6 * sigma) + stride)

    a, b = edge(pivots[0], -1), edge(pivots[-1], 1)
    return (a, b) if 0 < a and b < size else None


def _partition(
    view: np.ndarray, pivots: tuple[Key, ...], scratch: CrackScratch
) -> list[int]:
    """In-place partition of ``view`` around ascending ``pivots``.

    Returns the number of elements ``< pivot`` for each pivot; the
    elements between two consecutive counts are the ones between the
    two pivots.  This is ``ndarray.partition`` (in-place
    introselect); a piece of at least ``SAMPLE_THRESHOLD``
    rows first tries the sampled band of :func:`_rank_band`: select
    the whole piece at the band edge that leaves the smaller remainder
    and the remainder at the other, check the guard elements
    ``view[a] < pivots[0]`` and ``view[b] >= pivots[-1]``, then
    partition inside the band only (a band of at least the threshold
    samples again).  A band that reaches an edge or fails a guard
    falls back to counting the whole piece first, so no result depends
    on the sample.
    """
    size = view.size
    if size >= SAMPLE_THRESHOLD:
        band = _rank_band(view, pivots)
        if band is not None:
            a, b = band
            if b < size - a:
                view.partition(b)
                view[:b].partition(a)
            else:
                view.partition(a)
                view[a + 1 :].partition(b - a - 1)
            if view[a] < pivots[0] and view[b] >= pivots[-1]:
                inner = _partition(view[a + 1 : b], pivots, scratch)
                return [a + 1 + n for n in inner]
    # Count first.  Everything left of a split is below the next pivot
    # too, so each later pivot is counted in the remainder only.
    counts = []
    done = 0
    for pivot in pivots:
        rest = view[done:] if done else view
        n = done + _count_below(rest, pivot, scratch)
        if done < n < size:
            rest.partition(n - done - 1)
        counts.append(n)
        done = n
    return counts


def crack_in_two(
    array: np.ndarray,
    start: int,
    end: int,
    pivot: Key,
    scratch: CrackScratch | None = None,
) -> tuple[int, CostCharge]:
    """Partition ``array[start:end]`` so values < pivot come first.

    Returns:
        ``(split, charge)`` -- ``split`` is the absolute position of the
        first element ``>= pivot`` after partitioning.

    Raises:
        CrackerError: on invalid bounds.
    """
    _check_bounds(array, start, end)
    size = end - start
    if size == 0:
        return start, CostCharge(cracks=1)
    (n_left,) = _partition(
        array[start:end],
        (pivot,),
        scratch if scratch is not None else CrackScratch(),
    )
    return start + n_left, CostCharge.for_crack(size)


def crack_in_three(
    array: np.ndarray,
    start: int,
    end: int,
    low: Key,
    high: Key,
    scratch: CrackScratch | None = None,
) -> tuple[int, int, CostCharge]:
    """Partition ``array[start:end]`` into ``< low | [low, high) | >= high``.

    Returns:
        ``(split_low, split_high, charge)`` -- absolute positions of the
        first element ``>= low`` and the first ``>= high``.

    Raises:
        CrackerError: if ``low > high`` or bounds are invalid.
    """
    _check_bounds(array, start, end)
    if low > high:
        raise CrackerError(f"crack range inverted: low={low} > high={high}")
    size = end - start
    if size == 0:
        return start, start, CostCharge(cracks=2)
    charge = CostCharge(elements_cracked=size, pieces_touched=1, cracks=2)
    if scratch is None:
        scratch = CrackScratch()
    # Three-way selection: splits and per-band multisets match the
    # original three-mask kernel; element order inside each band is
    # unspecified.
    n_lo, n_below_high = _partition(array[start:end], (low, high), scratch)
    return start + n_lo, start + n_below_high, charge


def crack_in_two_batch(
    array: np.ndarray,
    tasks: list[tuple[int, int, Key]],
    scratch: CrackScratch | None = None,
    validate: bool = True,
) -> tuple[list[int], list[CostCharge]]:
    """Crack many disjoint pieces, each around its own pivot.

    ``tasks`` is a list of ``(start, end, pivot)`` triples describing
    pairwise-disjoint pieces of ``array``; each is partitioned exactly
    as :func:`crack_in_two` would, in task order.

    Returns ``(splits, charges)`` aligned with ``tasks``: the absolute
    position of the first element ``>= pivot`` of each piece, and the
    per-piece :class:`CostCharge` (identical to what sequential
    :func:`crack_in_two` calls would have produced).

    Raises:
        CrackerError: on invalid bounds or overlapping pieces.
    """
    if not tasks:
        return [], []
    if validate:
        _check_disjoint(array, tasks, "crack_in_two_batch")
    if scratch is None:
        scratch = CrackScratch()
    splits: list[int] = []
    charges: list[CostCharge] = []
    for start, end, pivot in tasks:
        size = end - start
        if size == 0:
            splits.append(start)
            charges.append(CostCharge(cracks=1))
            continue
        (n_left,) = _partition(array[start:end], (pivot,), scratch)
        splits.append(start + n_left)
        charges.append(CostCharge.for_crack(size))
    return splits, charges


def crack_spans_batch(
    array: np.ndarray,
    tasks: list[tuple[int, int, Key, Key]],
    scratch: CrackScratch | None = None,
    validate: bool = True,
) -> list[tuple[int, int]]:
    """Crack many disjoint pieces, each around one *or two* pivots.

    ``tasks`` is a list of ``(start, end, low, high)`` with
    ``low <= high`` describing pairwise-disjoint pieces; a
    single-pivot task simply passes ``low == high``.  The physical
    backbone of a batched select window: each piece is partitioned in
    place, in task order, around its one pivot or -- three ways --
    around its two.

    Returns ``(split_low, split_high)`` per task: the absolute
    positions of the first element ``>= low`` and ``>= high``.  No
    cost accounting -- callers of this kernel replay charges
    separately (see :mod:`repro.cracking.batch`).

    Raises:
        CrackerError: on invalid bounds, inverted pivots or overlapping
            pieces.
    """
    if not tasks:
        return []
    if validate:
        _check_disjoint(array, tasks, "crack_spans_batch")
        for _, _, low, high in tasks:
            if low > high:
                raise CrackerError(
                    f"crack range inverted: low={low} > high={high}"
                )
    if scratch is None:
        scratch = CrackScratch()
    splits: list[tuple[int, int]] = []
    for start, end, low, high in tasks:
        counts = _partition(
            array[start:end],
            (low,) if low == high else (low, high),
            scratch,
        )
        splits.append((start + counts[0], start + counts[-1]))
    return splits


def crack_multi(
    array: np.ndarray,
    start: int,
    end: int,
    pivots: list[Key],
    scratch: CrackScratch | None = None,
) -> tuple[list[int], CostCharge]:
    """Partition ``array[start:end]`` around many pivots in one go.

    The batch optimization the paper's §3 asks for ("apply multiple
    tuning actions in one go over a single index").  A recursive
    selection: each step splits its segment at the median remaining
    pivot (sampled rank on a big segment, see :func:`_partition`),
    O(n log k) in place.  Charged as a two-pass counting partition
    (classify every element once, scatter it once), ``2 * size``.

    Returns:
        ``(splits, charge)`` -- ``splits[i]`` is the absolute position
        of the first element ``>= pivots[i]``.

    Raises:
        CrackerError: if bounds are invalid or pivots are not strictly
            increasing.
    """
    _check_bounds(array, start, end)
    if not pivots:
        return [], CostCharge()
    if not all(a < b for a, b in zip(pivots, pivots[1:])):
        raise CrackerError(
            f"pivots must be strictly increasing: {pivots}"
        )
    size = end - start
    charge = CostCharge(
        elements_cracked=2 * size,  # classify pass + scatter pass
        pieces_touched=1,
        cracks=len(pivots),
    )
    if size == 0:
        return [start] * len(pivots), charge
    if scratch is None:
        scratch = CrackScratch()
    view = array[start:end]
    # Unstable multi-way selection: recursively introselect at the
    # median pivot -- O(n log k) in place, no permutation arrays.
    splits = [0] * len(pivots)
    stack = [(0, size, 0, len(pivots))]
    while stack:
        lo, hi, first, last = stack.pop()
        if first >= last:
            continue
        mid = (first + last) // 2
        (n_left,) = _partition(view[lo:hi], (pivots[mid],), scratch)
        cut = lo + n_left
        splits[mid] = start + cut
        stack.append((lo, cut, first, mid))
        stack.append((cut, hi, mid + 1, last))
    return splits, charge


def sort_piece(array: np.ndarray, start: int, end: int) -> CostCharge:
    """Fully sort ``array[start:end]`` in place.

    Used by refinement actions that finish small pieces off.  Charged
    as a sort of ``end - start`` elements.

    Raises:
        CrackerError: on invalid bounds.
    """
    _check_bounds(array, start, end)
    size = end - start
    if size <= 1:
        return CostCharge(elements_sorted=size)
    array[start:end].sort(kind="quicksort")
    return CostCharge(elements_sorted=size, pieces_touched=1)


def split_sorted_piece(
    array: np.ndarray, start: int, end: int, pivot: Key
) -> tuple[int, CostCharge]:
    """Find the crack position inside an already-sorted piece.

    No data moves: a binary search locates the first element
    ``>= pivot``.

    Raises:
        CrackerError: on invalid bounds.
    """
    _check_bounds(array, start, end)
    offset = int(array[start:end].searchsorted(pivot, side="left"))
    charge = CostCharge.for_binary_search(max(1, end - start))
    return start + offset, charge
