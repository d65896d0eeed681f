"""Seeded uniform draws, bit for bit those of ``numpy.random.default_rng(seed)``.

The experiments draw their random test symbols and points from fixed seeds.
:class:`Generator` reproduces numpy's default generator for them in pure
Python: ``SeedSequence`` pool mixing and ``generate_state(4, uint64)`` (the
``hashmix``/``mix`` constants of ``numpy/random/bit_generator.pyx``), PCG64's
``srandom`` seeding and XSL-RR 128->64 output (O'Neill, HMC-CS-2014-0905), and
numpy's 53-bit ``next_double``.  A process that runs the experiments therefore
never imports ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _hasher(const: int, mult: int):
    """numpy's ``hashmix`` with its running hash constant (advanced once per call)."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


class Generator:
    """PCG64 seeded through ``SeedSequence(seed)``; ``seed`` a non-negative int."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        entropy = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        state_hash = _hasher(0x8B51F9DD, 0x58F38DED)
        words = [state_hash(pool[i % 4]) for i in range(8)]
        u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
        self._inc = (initseq << 1 | 1) & _M128
        self._state = (self._inc + initstate) * _PCG_MULTIPLIER + self._inc & _M128

    def _next_double(self) -> float:
        self._state = self._state * _PCG_MULTIPLIER + self._inc & _M128
        word, rot = (self._state >> 64 ^ self._state) & _M64, self._state >> 122
        return (((word >> rot | word << 64 - rot) & _M64) >> 11) * 2.0**-53

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """``low + (high - low) * u`` with ``u`` uniform on [0, 1): a float, or ``size`` of them in an array."""
        low, span = float(low), float(high) - float(low)
        if size is None:
            return low + span * self._next_double()
        return np.array([low + span * self._next_double() for _ in range(size)])
