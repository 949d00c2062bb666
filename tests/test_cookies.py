import numpy as np
import pytest

from fopsim.cookies import COOKIE_LEN, ServerCookieKey, mint, validate

# chi-square upper critical value, 128 degrees of freedom, alpha = 0.001
CHI2_CRIT_128 = 183.186


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def key(rng):
    return ServerCookieKey.generate(rng)


def test_two_mints_for_same_ip_differ(key, rng):
    assert mint(key, "203.0.113.5", rng) != mint(key, "203.0.113.5", rng)


def test_mint_validate_round_trip(key, rng):
    for i in range(1000):
        ip = f"203.0.{i // 250}.{i % 250 + 1}"
        assert validate(mint(key, ip, rng), key, ip)


def test_ip_binding_rejects_other_address(key, rng):
    for i in range(1000):
        cookie = mint(key, f"203.0.113.{i % 250 + 1}", rng)
        assert not validate(cookie, key, f"198.51.100.{i % 250 + 1}")


def test_ipv6_style_addresses_handled(key, rng):
    cookie = mint(key, "2001:db8::21", rng)
    assert validate(cookie, key, "2001:db8::21")
    assert not validate(cookie, key, "2001:db8::22")


def test_wrong_length_rejected(key):
    assert not validate(b"too-short", key, "203.0.113.5")
    assert not validate(b"x" * 17, key, "203.0.113.5")


def test_cookie_is_16_bytes(key, rng):
    assert len(mint(key, "203.0.113.5", rng)) == COOKIE_LEN


def test_random_forgeries_never_accept(key, rng):
    blob = rng.bytes(16 * 10_000)
    accepted = sum(
        1 for i in range(10_000)
        if validate(blob[16 * i:16 * (i + 1)], key, "203.0.113.5"))
    assert accepted == 0


def test_no_collisions_over_many_mints(key, rng):
    seen = {mint(key, "203.0.113.5", rng) for _ in range(10_000)}
    assert len(seen) == 10_000


def test_no_plaintext_structure_for_adjacent_ips(key, rng):
    # cookies for adjacent addresses should differ like random strings:
    # per-bit flip counts follow Bin(n, 1/2); chi-square over 128 positions
    n = 10_000
    flip_counts = np.zeros(128, dtype=np.int64)
    total_distance = 0
    for i in range(n):
        a = mint(key, f"10.{i // 200}.{i % 200}.1", rng)
        b = mint(key, f"10.{i // 200}.{i % 200}.2", rng)
        x = np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)
        bits = np.unpackbits(x)
        flip_counts += bits
        total_distance += int(bits.sum())
    mean_distance = total_distance / n
    assert abs(mean_distance - 64.0) < 0.5
    expected = n / 2
    chi2 = float((((flip_counts - expected) ** 2) / (expected / 2)).sum())
    assert chi2 < CHI2_CRIT_128


def test_pool_members_sharing_key_validate_each_other(rng):
    material = rng.bytes(16)
    server_a = ServerCookieKey(material)
    server_b = ServerCookieKey(material)
    cookie = mint(server_a, "203.0.113.5", rng)
    assert validate(cookie, server_b, "203.0.113.5")


def test_statelessness(key, rng):
    # validation needs only (cookie, key, ip): a fresh key object built from
    # the same material accepts a cookie minted long before
    cookie = mint(key, "203.0.113.5", rng)
    fresh = ServerCookieKey(key.key_material)
    assert fresh.key_material == key.key_material
    assert validate(cookie, fresh, "203.0.113.5")


def test_key_material_must_be_128_bit(rng):
    with pytest.raises(ValueError):
        ServerCookieKey(b"short")


def test_repr_hides_key_bytes(key):
    assert key.key_material.hex() not in repr(key)
