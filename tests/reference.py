"""Independent scalar oracles used to pin down the vectorized implementations.

Everything here is deliberately written in a different style from the
package code (stateful generators, per-element loops, no numpy math) so a
bug would have to appear twice, in two shapes, to slip through.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

CRC32_POLY = 0xEDB88320  # reflected IEEE 802.3 polynomial


def mix64(z: int) -> int:
    z &= MASK64
    z ^= z >> 30
    z = (z * MIX1) & MASK64
    z ^= z >> 27
    z = (z * MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix_stream(state: int):
    """Classic stateful splitmix64: advance by GOLDEN, yield mixed state."""
    while True:
        state = (state + GOLDEN) & MASK64
        yield mix64(state)


def block_stream(seed: int, block_id: int):
    """The per-block draw stream as a stateful generator."""
    bs = mix64((seed ^ ((block_id * GOLDEN) & MASK64)) + GOLDEN)
    return splitmix_stream(bs)


def to_unit_float(word: int) -> float:
    return (word >> 11) * (2.0**-53)


def block_floats(seed: int, block_id: int, n_draws: int) -> list[float]:
    gen = block_stream(seed, block_id)
    return [to_unit_float(next(gen)) for _ in range(n_draws)]


def block_vectors(seed: int, block_id: int, n_vectors: int) -> list[tuple[float, float, float]]:
    it = iter(block_floats(seed, block_id, 3 * n_vectors))
    return [(x, y, z) for x, y, z in zip(it, it, it)]


def left_fold_sum(rows) -> tuple[float, float, float]:
    """Strict sequential accumulation in record order, one component at a time."""
    ax = ay = az = 0.0
    for x, y, z in rows:
        ax = ax + x
        ay = ay + y
        az = az + z
    return (ax, ay, az)


def shift_rows(rows, delta) -> list[tuple[float, float, float]]:
    """Each record plus delta, one Python float add per component."""
    dx, dy, dz = (float(c) for c in delta)
    shifted = []
    for x, y, z in rows:
        shifted.append((float(x) + dx, float(y) + dy, float(z) + dz))
    return shifted


def combine_in_order(partials) -> tuple[float, float, float]:
    """Mean of (sums, count) pairs: each component's sums added one at a
    time in the order given, then one division by the whole count."""
    totals = [0.0, 0.0, 0.0]
    count = 0
    for sums, n in partials:
        for j in range(3):
            totals[j] = totals[j] + sums[j]
        count += n
    return tuple(t / count for t in totals)


def pairwise_sum(values: list[float]) -> float:
    """Recursive halving sum; differs from the left fold in rounding order."""
    n = len(values)
    if n == 0:
        return 0.0
    if n == 1:
        return values[0]
    mid = n // 2
    return pairwise_sum(values[:mid]) + pairwise_sum(values[mid:])


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & MASK64
    return h


def partition_blocks(blocks: int, partitions: int, p: int) -> list[int]:
    """Block ids of partition p, found by testing every block id in turn."""
    ids = []
    for b in range(blocks):
        if b % partitions == p:
            ids.append(b)
    return ids


def crc32(data: bytes) -> int:
    """Bitwise reflected CRC-32: one shift per bit, no table."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ CRC32_POLY if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF
