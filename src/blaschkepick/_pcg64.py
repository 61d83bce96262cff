"""The fuzz's random stream: PCG64, seeded as numpy seeds it.

:class:`PCG64Stream` draws, bit for bit, what ``numpy.random.default_rng(seed)``
draws from its scalar ``random()``, ``uniform(lo, hi)`` and
``integers(lo, hi)``, in plain Python, so a fuzz process never loads
``numpy.random``.  The stream is the package's own: a seed names it whatever
numpy later makes its default generator.

The seed goes through numpy's ``SeedSequence``: its 32-bit words are hashed
into a pool of four words, which is cross-mixed and then expanded to the
128-bit state and increment of a PCG64 generator (M. E. O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905).  Bounded integers use Lemire's
multiply-and-reject method ("Fast Random Integer Generation in an
Interval", ACM TOMACS 29(1), 2019), on 32-bit halves of the 64-bit output
when the range allows, as numpy's ``Generator.integers`` does.
"""

from __future__ import annotations

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
INT64 = 1 << 63
# SeedSequence: a pool of four 32-bit words, hashed in with (INIT_A, MULT_A),
# cross-mixed with (MIX_MULT_L, MIX_MULT_R) and read out with (INIT_B, MULT_B).
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The seed's little-endian 32-bit words, at least one."""
    words = [seed & MASK32]
    while seed > MASK32:
        seed >>= 32
        words.append(seed & MASK32)
    return words


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's (initstate, initseq), as ``SeedSequence(seed).generate_state(4,
    uint64)`` gives them: the pool mixed from the seed's words, read out as
    eight 32-bit words, paired little-endian into four 64-bit ones."""
    multiplier = INIT_A

    def hashmix(value: int) -> int:
        nonlocal multiplier
        value ^= multiplier
        multiplier = multiplier * MULT_A & MASK32
        value = value * multiplier & MASK32
        return value ^ value >> XSHIFT

    def mix(x: int, y: int) -> int:
        result = MIX_MULT_L * x - MIX_MULT_R * y & MASK32
        return result ^ result >> XSHIFT

    words = _seed_words(seed)
    pool = [hashmix(w) for w in (words + [0] * POOL_SIZE)[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    multiplier, out = INIT_B, []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ multiplier
        multiplier = multiplier * MULT_B & MASK32
        value = value * multiplier & MASK32
        out.append(value ^ value >> XSHIFT)
    u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class PCG64Stream:
    """Scalar draws of ``numpy.random.default_rng(seed)``, for a seed >= 0
    (the caller checks it)."""

    __slots__ = ("state", "inc", "_half")

    def __init__(self, seed: int):
        initstate, initseq = _seed_state(seed)
        self.inc = initseq << 1 & MASK128 | 1
        # From state 0: one step gives inc; add initstate and step again.
        self.state = (self.inc + initstate) * PCG_MULTIPLIER + self.inc & MASK128
        # The spare high half of the last 64-bit output split for next32.
        self._half = None

    def next64(self) -> int:
        """Step the 128-bit LCG; output XSL-RR, hi ^ lo rotated right by the top 6 bits."""
        self.state = state = self.state * PCG_MULTIPLIER + self.inc & MASK128
        x, rot = (state >> 64 ^ state) & MASK64, state >> 122
        return (x >> rot | x << (64 - rot)) & MASK64

    def next32(self) -> int:
        """The low half of a fresh next64, then its high half on the next call."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self.next64()
        self._half = x >> 32
        return x & MASK32

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of next64."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) * random(), in that order of operations."""
        return lo + (hi - lo) * self.random()

    def integers(self, lo: int, hi: int) -> int:
        """A uniform integer in [lo, hi) by Lemire's rejection method, on
        next32 when hi - 1 - lo fits 32 bits and on next64 otherwise; a
        range of one value draws nothing.  ValueError unless lo < hi, both
        within numpy's default int64 bounds."""
        if not -INT64 <= lo < hi <= INT64:
            raise ValueError(f"integers needs lo < hi within int64 bounds, got [{lo}, {hi})")
        span = hi - 1 - lo
        if span == 0:
            return lo
        bits, draw = (32, self.next32) if span <= MASK32 else (64, self.next64)
        mask, size = (1 << bits) - 1, span + 1
        product = draw() * size
        if product & mask < size:
            threshold = (mask - span) % size
            while product & mask < threshold:
                product = draw() * size
        return lo + (product >> bits)
