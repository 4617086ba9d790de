import random

from ocareach.values import PAGE, lattice, mark, marked, unmarked


def _bits(values, at):
    raw = bytearray((max(values, default=at) - at) // 8 + 1)
    for v in values:
        raw[(v - at) >> 3] |= 1 << ((v - at) & 7)
    return int.from_bytes(raw, "little")


def test_pages_mark_and_read_back_like_a_set():
    """``mark`` and ``unmarked`` agree with a plain set, within one page
    and across many, for dense segments and for lattices whose members
    sit up to a page apart, as a closure marks a chain's laps."""
    rng = random.Random(28)
    for _ in range(150):
        pages, model = {}, set()
        for _ in range(rng.randint(1, 6)):
            at = rng.randint(0, 6 * PAGE)
            if rng.random() < 0.5:
                bits = rng.getrandbits(rng.randint(1, 4 * PAGE)) | 1
            else:
                bits = lattice(rng.randint(1, 40), rng.randint(1, PAGE))
            values = {at + j for j, b in enumerate(reversed(bin(bits))) if b == "1"}
            assert unmarked(pages, at, bits) == _bits(values - model, at)
            mark(pages, at, bits)
            model |= values
            assert unmarked(pages, at, bits) == 0
        for v in range(0, 12 * PAGE, 13):
            assert marked(pages, v) == (v in model)


def test_lattice_holds_n_values_a_period_apart():
    for n in (1, 2, 3, 7, 64, 1000):
        for period in (1, 2, 5, 1024):
            assert lattice(n, period) == sum(1 << (period * i) for i in range(n))
