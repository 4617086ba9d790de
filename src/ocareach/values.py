"""Sets of counter values as sparse bitsets.

A set is a tuple of segments, flattened: ``(low0, bits0, low1, bits1,
...)`` holds the values ``low + j`` for each set bit ``j`` of ``bits``.
Segments are disjoint and in increasing order, and each ``bits`` is odd,
so ``low`` is its segment's least value.  A union joins segments less
than :data:`PAGE` values apart, so a set costs what its values span
where they are dense and a few words per value where they are sparse,
never what its highest value is.  The empty set is ``()``.  Sets are
immutable; every function here returns a new one.

While a closure runs, the values it has found at a state are marked in
pages instead (:func:`marked`, :func:`unmarked`, :func:`mark`,
:func:`from_pages`): a dict from page index to a bytearray of that
page's :data:`PAGE` bits, so that marking a value costs a byte whatever
the set already holds, and a page exists only where a value was found.

Outside this module only :func:`ocareach.exploration.post_star` reads
the bits: it steps a frontier one segment at a time, and tests and
marks a lone value's bit in its page inline.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterator

Values = tuple  # (low0, bits0, low1, bits1, ...)

PAGE_SHIFT = 10
PAGE = 1 << PAGE_SHIFT  # values per page, and the gap below which a union joins segments
PAGE_MASK = PAGE - 1


def one(v: int) -> Values:
    return (v, 1)


def of(values: Collection[int]) -> Values:
    """The set of ``values``, natural numbers in any order."""
    if len(values) == 1:
        return (*values, 1)
    out: list[int] = []
    for v in sorted(set(values)):
        if out and v - out[-2] < out[-1].bit_length() + PAGE:
            out[-1] |= 1 << (v - out[-2])
        else:
            out += (v, 1)
    return tuple(out)


def _segment(at: int, bits: int) -> Values:
    """The values ``at + j`` of ``bits`` as a set of one segment."""
    if not bits:
        return ()
    j = (bits & -bits).bit_length() - 1
    return (at + j, bits >> j)


def joined(segments) -> Values:
    """A set from disjoint segments ``[at0, bits0, at1, bits1, ...]``,
    with no bits empty, in any order."""
    if len(segments) == 2:
        return _segment(*segments)
    pairs = sorted(_segment(at, bits) for at, bits in zip(segments[::2], segments[1::2]))
    out: list[int] = []
    for low, bits in pairs:
        if out and low < out[-2] + out[-1].bit_length() + PAGE:
            out[-1] |= bits << (low - out[-2])
        else:
            out += (low, bits)
    return tuple(out)


def has(s: Values, v: int) -> bool:
    if len(s) == 2:
        d = v - s[0]
        return d >= 0 and s[1] >> d & 1 == 1
    lo, hi = 0, len(s) >> 1
    while lo < hi:  # the last segment starting at or below v
        mid = (lo + hi) >> 1
        if s[2 * mid] <= v:
            lo = mid + 1
        else:
            hi = mid
    if not lo:
        return False
    k = 2 * lo - 2
    return s[k + 1] >> (v - s[k]) & 1 == 1


def count(s: Values) -> int:
    return sum(bits.bit_count() for bits in s[1::2])


def least(s: Values) -> int:
    return s[0]


def iterate(s: Values) -> Iterator[int]:
    """The values in increasing order, each segment read from its least
    value."""
    for k in range(0, len(s), 2):
        low, digits = s[k], bin(s[k + 1])[:1:-1]  # bit j at index j
        j = 0
        while j >= 0:
            yield low + j
            j = digits.find("1", j + 1)


def shift(s: Values, u: int) -> Values:
    """``{v + u for v in s}``, less what falls below 0."""
    if u >= 0 or s[:1] >= (-u,):
        if len(s) == 2:
            return (s[0] + u, s[1])
        return tuple(x + u if k % 2 == 0 else x for k, x in enumerate(s))
    out: list[int] = []
    for k in range(0, len(s), 2):
        low = s[k] + u
        if low >= 0:
            out += (low, s[k + 1])
        else:
            out += _segment(0, s[k + 1] >> -low)
    return tuple(out)


def discard(s: Values, v: int) -> Values:
    """``s`` without ``v``."""
    if len(s) == 2:
        d = v - s[0]
        return _segment(s[0], s[1] ^ 1 << d) if d >= 0 and s[1] >> d & 1 else s
    if not has(s, v):
        return s
    out = list(s)
    k = 0
    while k + 2 < len(out) and out[k + 2] <= v:
        k += 2
    out[k : k + 2] = _segment(out[k], out[k + 1] ^ 1 << (v - out[k]))
    return tuple(out)


def at_least(s: Values, x: int) -> Values:
    """The values of ``s`` at or above ``x``."""
    if s[:1] >= (x,):
        return s
    out: list[int] = []
    for k in range(0, len(s), 2):
        low, bits = s[k], s[k + 1]
        if low >= x:
            out += s[k:]
            break
        out += _segment(x, bits >> (x - low))
    return tuple(out)


def union(s: Values, t: Values) -> Values:
    if not s:
        return t
    if not t:
        return s
    if len(s) == 2 == len(t):
        (a, x), (b, y) = s, t
        if a - PAGE < b + y.bit_length() and b - PAGE < a + x.bit_length():
            return (a, x | y << (b - a)) if a <= b else (b, y | x << (a - b))
    return joined([*s, *t])


def _combine(s: Values, t: Values, keep_common: bool) -> Values:
    """``s & t`` or ``s - t``, by segments, both walked in order."""
    out: list[int] = []
    j, m = 0, len(t)
    for k in range(0, len(s), 2):
        low, bits = s[k], s[k + 1]
        top = low + bits.bit_length()
        while j < m and t[j] + t[j + 1].bit_length() <= low:
            j += 2
        common, i = 0, j
        while i < m and t[i] < top:
            d = t[i] - low
            common |= t[i + 1] << d if d >= 0 else t[i + 1] >> -d
            i += 2
        out += _segment(low, bits & common if keep_common else bits & ~common)
    return tuple(out)


def inter(s: Values, t: Values) -> Values:
    if len(s) == 2 == len(t):
        d = t[0] - s[0]
        return _segment(s[0], s[1] & (t[1] << d if d >= 0 else t[1] >> -d))
    return _combine(s, t, True) if s and t else ()


def minus(s: Values, t: Values) -> Values:
    if len(s) == 2 == len(t):
        d = t[0] - s[0]
        return _segment(s[0], s[1] & ~(t[1] << d if d >= 0 else t[1] >> -d))
    return _combine(s, t, False) if s and t else s


def lattice(n: int, period: int) -> int:
    """The bits ``0, period, ..., (n - 1) * period``, ``n >= 1``: the set
    of ``n`` values ``period`` apart, read from the least.  Built by
    doubling, so that it costs a few shifts of its own width."""
    bits, have = 1, 1
    while have < n:
        take = min(have, n - have)
        bits |= (bits & ((1 << take * period) - 1)) << have * period
        have += take
    return bits


def admitted(at: int, bits: int, keep: Callable[[int], bool]) -> int:
    """The bits of ``bits``, which is nonzero, whose values ``at + j`` the
    predicate ``keep`` admits, each asked once, in increasing order:
    the bits are read as a string, from the least value up."""
    low = (bits & -bits).bit_length() - 1
    digits = bytearray(bin(bits >> low), "ascii")  # bit j of the shifted bits at index top - j
    top = i = len(digits) - 1
    while i > 1:
        if not keep(at + low + top - i):
            digits[i] = 48  # "0"
        i = digits.rfind(49, 0, i)  # the next "1" up
    return int(digits, 0) << low


# --------------------------------------------------------------- pages


Pages = dict  # page index -> bytearray of PAGE bits, bit j for value page * PAGE + j
PAGE_BYTES = PAGE >> 3
BIT = tuple(1 << j for j in range(8))  # a value's bit within its byte


def marked(pages: Pages, v: int) -> bool:
    page = pages.get(v >> PAGE_SHIFT)
    return page is not None and page[(v & PAGE_MASK) >> 3] & BIT[v & 7] != 0


def unmarked(pages: Pages, at: int, bits: int) -> int:
    """The bits of ``bits`` whose values ``at + j`` are not marked in
    ``pages``."""
    off = at & PAGE_MASK
    top = off + bits.bit_length()
    if top <= PAGE:  # one page
        page = pages.get(at >> PAGE_SHIFT)
        if page is None:
            return bits
        return bits & ~(int.from_bytes(page[off >> 3 : (top + 7) >> 3], "little") >> (off & 7))
    # Several pages: their bytes are read into one buffer from the first
    # page's start, so the cost is linear in the span, however sparse.
    first = at >> PAGE_SHIFT
    old = bytearray((top + 7) >> 3)
    for k in range(0, len(old), PAGE_BYTES):
        page = pages.get(first + k // PAGE_BYTES)
        if page is not None:
            old[k : k + PAGE_BYTES] = page[: len(old) - k]
    return bits & ~(int.from_bytes(old, "little") >> off)


def mark(pages: Pages, at: int, bits: int) -> None:
    """Mark the values ``at + j`` of ``bits`` in ``pages``."""
    off = at & PAGE_MASK
    top = off + bits.bit_length()
    if top <= PAGE:  # one page
        page = pages.get(at >> PAGE_SHIFT)
        if page is None:
            page = pages[at >> PAGE_SHIFT] = bytearray(PAGE_BYTES)
        i, j = off >> 3, (top + 7) >> 3
        page[i:j] = (int.from_bytes(page[i:j], "little") | bits << (off & 7)).to_bytes(j - i, "little")
        return
    # Several pages: ``bits`` is written out once from the first page's
    # start and cut into pages, so the cost is linear in the span.
    first = at >> PAGE_SHIFT
    new = (bits << off).to_bytes((top + 7) >> 3, "little")
    for k in range(0, len(new), PAGE_BYTES):
        part = new[k : k + PAGE_BYTES]
        n = len(part)
        page = pages.get(first + k // PAGE_BYTES)
        if page is None:
            page = pages[first + k // PAGE_BYTES] = bytearray(PAGE_BYTES)
            page[:n] = part
        else:
            page[:n] = (int.from_bytes(page[:n], "little") | int.from_bytes(part, "little")).to_bytes(n, "little")


def mark_all(pages: Pages, s: Values) -> None:
    """Mark the values of the set ``s`` in ``pages``."""
    for k in range(0, len(s), 2):
        mark(pages, s[k], s[k + 1])


def from_pages(pages: Pages) -> Values:
    """The set of the values marked in ``pages``: one segment per run of
    consecutive pages."""
    if len(pages) == 1:
        ((p, page),) = pages.items()
        return _segment(p << PAGE_SHIFT, int.from_bytes(page, "little"))
    out: list[int] = []
    run: list[int] = []
    for p in sorted(pages):
        if run and p != run[-1] + 1:
            out += _segment(run[0] << PAGE_SHIFT, _read(pages, run))
            run = []
        run.append(p)
    if run:
        out += _segment(run[0] << PAGE_SHIFT, _read(pages, run))
    return tuple(out)


def _read(pages: Pages, run: list[int]) -> int:
    return int.from_bytes(b"".join(pages[p] for p in run), "little")
