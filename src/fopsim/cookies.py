"""Server-side Fast Open cookie minting and stateless validation.

A cookie is one AES block: Enc_k(digest64(client_ip) || nonce64). The
64-bit keyed digest binds the client's publicly visible address; the
fresh nonce makes every issuance unique. Validation decrypts and compares
digests, so any pool member holding the key can validate any pool cookie
without shared connection state.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import ECB

from .rngtools import random_bytes

__all__ = ["COOKIE_LEN", "ServerCookieKey", "mint", "validate"]

COOKIE_LEN = 16
_ECB = ECB()  # stateless mode object, shared by every key


class ServerCookieKey:
    """128-bit cookie secret shared by every address in one server pool."""

    __slots__ = ("key_material", "_enc", "_dec")

    def __init__(self, key_material: bytes):
        if len(key_material) != 16:
            raise ValueError("key_material must be 16 bytes")
        self.key_material = bytes(key_material)
        cipher = Cipher(AES(self.key_material), _ECB)
        # ECB contexts are stateless per block; reused across calls.
        self._enc = cipher.encryptor()
        self._dec = cipher.decryptor()

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "ServerCookieKey":
        return cls(random_bytes(rng, 16))

    def __repr__(self) -> str:  # never leak key bytes in logs
        return "ServerCookieKey(<secret>)"


def _ip_digest(key: ServerCookieKey, ip: str) -> bytes:
    return hashlib.blake2b(ip.encode("utf-8"), key=key.key_material,
                           digest_size=8).digest()


def mint(key: ServerCookieKey, client_ip: str, rng: np.random.Generator) -> bytes:
    nonce = random_bytes(rng, 8)
    return key._enc.update(_ip_digest(key, client_ip) + nonce)


def validate(cookie: bytes, key: ServerCookieKey, claimed_ip: str) -> bool:
    if not isinstance(cookie, (bytes, bytearray)) or len(cookie) != COOKIE_LEN:
        return False
    block = key._dec.update(bytes(cookie))
    return hmac.compare_digest(block[:8], _ip_digest(key, claimed_ip))
