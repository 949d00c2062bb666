"""Named, reproducible random streams derived from one root seed.

Every source of randomness in a run (per host, per pool, per trial) pulls
its own generator from a SeedTree so that adding a consumer never perturbs
the draws of another.

Besides 53-bit uniforms, a stream hands out raw 64-bit outputs as bytes
(``random_bytes``) or as eight 8-bit lanes each (``random_lanes``), both
in the little-endian image of the outputs.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["SeedTree", "random_bytes", "random_lanes"]


@functools.lru_cache(maxsize=4096)
def _str_key(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def _name_key(name: object) -> int:
    if type(name) is str:
        return _str_key(name)
    if isinstance(name, (int, np.integer)):
        return int(name) & 0xFFFFFFFF
    return _str_key(str(name))


_WORDS_LE = np.dtype("<u8")


def random_bytes(rng: np.random.Generator, n: int) -> bytes:
    """``n // 8`` raw 64-bit outputs of ``rng``'s bit generator, each
    written little-endian. ``n`` must be a multiple of 8.

    On a PCG64 stream that makes only 64-bit draws these are exactly the
    bytes ``rng.bytes(n)`` returns, and every later draw is the same as
    after ``rng.bytes(n)``: ``Generator.bytes`` takes 32-bit halves of
    the output, low half first, and with no half-word buffered that is
    the same image. (The buffer slot ``uinteger`` of
    ``bit_generator.state`` keeps its old value; no draw reads it while
    ``has_uint32`` is 0.) Every stream fopsim hands to this function
    makes only 64-bit draws, such as ``random()``, ``integers(0, 2**63)``
    and this function, so no half-word is ever buffered; the test suite
    checks that at every call.
    """
    if n % 8:
        raise ValueError(f"random_bytes takes whole 64-bit words, not {n} bytes")
    return rng.bit_generator.random_raw(n // 8).astype(_WORDS_LE,
                                                       copy=False).tobytes()


def random_lanes(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` 8-bit lanes from ``rng``'s bit generator, as a uint8 array.

    Lane k is byte k % 8 of raw 64-bit output k // 8: the little-endian
    image of the outputs, as in ``random_bytes``. The call takes
    ceil(n / 8) outputs, so the bytes of the last one past lane n - 1
    are dropped. Lanes taken in pieces of whole outputs (multiples of 8)
    are therefore the lanes of one call for their total.
    """
    words = rng.bit_generator.random_raw(-(-n // 8))
    return words.astype(_WORDS_LE, copy=False).view(np.uint8)[:n]


class SeedTree:
    """Derives independent numpy generators from a 64-bit root seed.

    Streams are addressed by a tuple of names; the same (seed, names)
    always yields the same generator state.
    """

    def __init__(self, root_seed: int):
        if not 0 <= int(root_seed) < 2**64:
            raise ValueError("root seed must fit in 64 bits")
        self.root_seed = int(root_seed)
        # SeedSequence's run entropy: 32-bit words, low first, padded to
        # its 4-word pool because a spawn key follows
        self._entropy = [self.root_seed & 0xFFFFFFFF, self.root_seed >> 32,
                         0, 0]

    def stream(self, *names: object) -> np.random.Generator:
        """The generator of
        ``PCG64(SeedSequence(root_seed, spawn_key=name keys))``: numpy's
        own seed expansion, handed the entropy words that SeedSequence
        assembles from that seed and spawn key."""
        entropy = self._entropy + [_name_key(n) for n in names]
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(np.array(entropy, dtype=np.uint32))))

