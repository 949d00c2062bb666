"""Scenario configuration files.

A config is a versioned JSON document that fully determines a run given
its seed: topology (clients, optional NAT with a rotation schedule, host
pools), client events (address changes, TLS cache clears), a visit
schedule with ground-truth labels, and the checks that decide the run's
exit status. ``one_way_delay_ms`` is one delay for both directions of
every access link, or an ``[up, down]`` pair. Configs round-trip
through to_dict/from_dict, which keeps every nested object as written:
an optional key it leaves out takes its value from ``DEFAULTS``. A key
the schema does not name is rejected, not dropped, and so is an address
or hostname longer than the u8 length prefix that carries it, or a time
past what the run's u64 clock fields record.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields
from typing import Any, Optional

from .transport import TcpVariant

__all__ = ["ConfigError", "DEFAULTS", "ScenarioConfig", "load_config"]

CONFIG_VERSION = 1

_VARIANTS = {v.value for v in TcpVariant}

_CHECK_KINDS = {
    "tracking_period_exceeds_ip_baseline",
    "issuance_chain_edge_present",
    "tracking_period_within_lifetime",
    "passive_singletons",
    "no_cleartext_cookie_reuse",
    "linkage_across_labels",
    "no_linkage_across_labels",
    "ip_baseline_links_across_labels",
}

_ADVERSARIES = ("host", "passive")

_EVENT_KINDS = ("change_ip", "clear_tls_cache")

# each optional key, by the config key that holds it ("config" for the
# top level), and its value when left out; validation and the run both
# read it here
DEFAULTS = {
    "config": {"one_way_delay_ms": 30, "cookie_lifetime_ms": 3_600_000,
               "nat": None, "checks": [], "events": []},
    "clients": {"behind_nat": False},
    "nat": {"rotations": []},
    "hosts": {"failure_probs": [0.0]},
    "visits": {"secondaries": [], "label": "", "context": None},
    "checks": {"adversary": "host", "hostname": None},
}

# the keys each kind of nested object may hold; the top level's are
# ScenarioConfig's fields
_CLIENT_KEYS = frozenset({"id", "ip", *DEFAULTS["clients"]})
_NAT_KEYS = frozenset({"public_ip", *DEFAULTS["nat"]})
_ROTATION_KEYS = frozenset({"at_ms", "new_ip"})
_HOST_KEYS = frozenset({"hostnames", "ips", *DEFAULTS["hosts"]})
_VISIT_KEYS = frozenset({"at_ms", "client", "hostname", *DEFAULTS["visits"]})
_CHECK_KEYS = frozenset({"kind", *DEFAULTS["checks"]})
_EVENT_KEYS = frozenset({"at_ms", "client", "kind", "new_ip"})

# A ticket's issue time and a capture's send time are u64 fields. A fetch,
# its primary connection then its secondaries, spans well under 64
# one-way delays, so with these bounds every simulated time stays below
# 2**62 + 64 * 2**32 < 2**63.
_AT_MS_LIMIT = 2**62
_DELAY_LIMIT_MS = 2**32


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _expect(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _known(item: dict, key: str, allowed: frozenset) -> None:
    """Reject a key of object ``item``, at ``key`` ("" for the root), that
    ``allowed`` does not name: a misspelt optional key would otherwise be
    ignored."""
    if not item.keys() <= allowed:
        unknown = sorted(str(k) for k in item.keys() - allowed)
        raise ConfigError(f"{key}{'.' if key else ''}{unknown[0]}: unknown "
                          f"key (expected one of {sorted(allowed)})")


def _objects(items: Any, key: str, allowed: frozenset, *,
             required: bool = False) -> list[tuple[str, dict]]:
    """``items``, the value at ``key``, as (key, object) pairs: a list of
    objects (non-empty when ``required``) holding only ``allowed`` keys."""
    _expect(isinstance(items, list) and (items or not required), key,
            "must be a non-empty list" if required else "must be a list")
    pairs = [(f"{key}[{i}]", item) for i, item in enumerate(items)]
    for key, item in pairs:
        _expect(isinstance(item, dict), key, "must be an object")
        _known(item, key, allowed)
    return pairs


def _is_int(value: Any) -> bool:
    """True for a JSON integer: ``bool`` subclasses ``int`` in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def _at_ms(item: dict, key: str) -> None:
    _expect(_is_int(item.get("at_ms")) and 0 <= item["at_ms"] < _AT_MS_LIMIT,
            f"{key}.at_ms", "must be an integer in [0, 2**62)")


def _utf8(value: Any) -> bool:
    """True for a string UTF-8 can encode: a lone surrogate it cannot."""
    return isinstance(value, str) and value.encode("utf-8", "ignore").decode() == value


def _wire_string(value: Any) -> bool:
    """True for a string a u8 length prefix can carry as UTF-8, as a TLS
    hello carries a hostname and a capture an address. One encode gives
    both verdicts: a lone surrogate makes it raise."""
    if not isinstance(value, str):
        return False
    try:
        return len(value.encode("utf-8")) <= 255
    except UnicodeEncodeError:
        return False


_WIRE_STRING = "must be a string of at most 255 bytes of UTF-8"


def _names(value: Any, declared) -> bool:
    """True when ``value`` is a string in ``declared`` (a list or a dict
    value would make a set lookup raise TypeError)."""
    return isinstance(value, str) and value in declared


@dataclass
class ScenarioConfig:
    version: int
    name: str
    variant: str
    seed: int
    one_way_delay_ms: int | list[int]
    cookie_lifetime_ms: Optional[int]
    clients: list[dict]
    nat: Optional[dict]
    hosts: list[dict]
    visits: list[dict]
    checks: list[dict]
    events: list[dict]

    def to_dict(self) -> dict:
        """Every key, as the config holds it, but ``events`` only when
        there are some."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if not self.events:
            del data["events"]
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioConfig":
        _expect(isinstance(data, dict), "<root>", "config must be an object")
        _expect("version" in data, "version", "missing")
        _expect(_is_int(data["version"]) and data["version"] == CONFIG_VERSION,
                "version", f"unsupported (expected {CONFIG_VERSION})")
        _known(data, "", _ROOT_KEYS)
        # the top level's optional keys, each a fresh copy of its default
        # where it is left out
        data = {**copy.deepcopy(DEFAULTS["config"]), **data}
        for key in ("name", "variant", "seed"):
            _expect(key in data, key, "missing")
        _expect(isinstance(data["name"], str), "name", "must be a string")
        _expect(_names(data["variant"], _VARIANTS), "variant",
                f"must be one of {sorted(_VARIANTS)}")
        _expect(_is_int(data["seed"]) and 0 <= data["seed"] < 2**64,
                "seed", "must be an integer in [0, 2**64)")

        delay = data["one_way_delay_ms"]
        pair = isinstance(delay, list) and len(delay) == 2
        _expect(all(_is_int(d) and 0 <= d < _DELAY_LIMIT_MS
                    for d in (delay if pair else [delay])),
                "one_way_delay_ms",
                "must be an integer in [0, 2**32) or an [up, down] pair "
                "of them")
        lifetime = data["cookie_lifetime_ms"]
        _expect(lifetime is None or (_is_int(lifetime) and lifetime > 0),
                "cookie_lifetime_ms", "must be a positive integer or null")

        behind_nat = DEFAULTS["clients"]["behind_nat"]
        clients = _objects(data.get("clients"), "clients", _CLIENT_KEYS,
                           required=True)
        ids = set()
        for key, c in clients:
            _expect(_utf8(c.get("id")), f"{key}.id", "must be a string of UTF-8")
            _expect(c["id"] not in ids, f"{key}.id", "duplicate client id")
            ids.add(c["id"])
            _expect(_wire_string(c.get("ip")), f"{key}.ip", _WIRE_STRING)
            _expect(isinstance(c.get("behind_nat", behind_nat), bool),
                    f"{key}.behind_nat", "must be a boolean")

        nat = data["nat"]
        _expect(nat is None or isinstance(nat, dict), "nat",
                "must be an object or null")
        if any(c.get("behind_nat", behind_nat) for _, c in clients):
            _expect(nat is not None, "nat",
                    "required when a client sits behind the gateway")
        rotations = []
        if nat is not None:
            _known(nat, "nat", _NAT_KEYS)
            _expect(_wire_string(nat.get("public_ip")), "nat.public_ip",
                    _WIRE_STRING)
            rotations = _objects(
                nat.get("rotations", DEFAULTS["nat"]["rotations"]),
                "nat.rotations", _ROTATION_KEYS)
            for key, r in rotations:
                _at_ms(r, key)
                _expect(_wire_string(r.get("new_ip")), f"{key}.new_ip",
                        _WIRE_STRING)
            # rotations run in at_ms order, ties in list order
            in_effect = nat["public_ip"]
            for key, r in sorted(rotations, key=lambda kr: kr[1]["at_ms"]):
                _expect(r["new_ip"] != in_effect, f"{key}.new_ip",
                        f"already the public address at {r['at_ms']} ms")
                in_effect = r["new_ip"]

        hostnames, addresses = set(), set()
        for key, h in _objects(data.get("hosts"), "hosts", _HOST_KEYS,
                               required=True):
            names = h.get("hostnames")
            _expect(isinstance(names, list) and names
                    and all(_wire_string(n) for n in names),
                    f"{key}.hostnames", "must be a non-empty list of strings "
                    "of at most 255 bytes of UTF-8")
            for n in names:
                _expect(n not in hostnames, f"{key}.hostnames",
                        f"hostname declared twice: {n}")
                hostnames.add(n)
            ips = h.get("ips")
            _expect(isinstance(ips, list) and ips
                    and all(_wire_string(ip) for ip in ips),
                    f"{key}.ips", "must be a non-empty list of strings "
                    "of at most 255 bytes of UTF-8")
            for ip in ips:
                _expect(ip not in addresses, f"{key}.ips",
                        f"address declared twice: {ip}")
                addresses.add(ip)
            probs = h.get("failure_probs", DEFAULTS["hosts"]["failure_probs"])
            _expect(isinstance(probs, list) and probs
                    and all(isinstance(p, (int, float)) and not isinstance(p, bool)
                            and 0 <= p <= 1 for p in probs),
                    f"{key}.failure_probs",
                    "must be a non-empty list of probabilities in [0,1]")

        visit = DEFAULTS["visits"]
        for key, v in _objects(data.get("visits"), "visits", _VISIT_KEYS,
                               required=True):
            _at_ms(v, key)
            _expect(_names(v.get("client"), ids), f"{key}.client",
                    "must name a declared client")
            _expect(_names(v.get("hostname"), hostnames), f"{key}.hostname",
                    "must name a declared hostname")
            secondaries = v.get("secondaries", visit["secondaries"])
            _expect(isinstance(secondaries, list)
                    and all(_names(h, hostnames) for h in secondaries),
                    f"{key}.secondaries", "must be a list of declared hostnames")
            _expect(isinstance(v.get("label", visit["label"]), str),
                    f"{key}.label", "must be a string")
            context = v.get("context", visit["context"])
            _expect(context is None or isinstance(context, str),
                    f"{key}.context", "must be a string or null")

        check = DEFAULTS["checks"]
        for key, c in _objects(data["checks"], "checks", _CHECK_KEYS):
            _expect(_names(c.get("kind"), _CHECK_KINDS), f"{key}.kind",
                    f"must be one of {sorted(_CHECK_KINDS)}")
            adversary = c.get("adversary", check["adversary"])
            _expect(_names(adversary, _ADVERSARIES), f"{key}.adversary",
                    f"must be one of {list(_ADVERSARIES)}")
            hostname = c.get("hostname", check["hostname"])
            if hostname is not None:
                linkage = c["kind"] in ("linkage_across_labels",
                                        "no_linkage_across_labels")
                _expect(linkage and adversary == "host", f"{key}.hostname",
                        "only valid on a linkage check with adversary 'host'")
                _expect(_names(hostname, hostnames), f"{key}.hostname",
                        "must name a declared hostname")

        changes = []
        for key, e in _objects(data["events"], "events", _EVENT_KEYS):
            _at_ms(e, key)
            _expect(_names(e.get("client"), ids), f"{key}.client",
                    "must name a declared client")
            _expect(_names(e.get("kind"), _EVENT_KINDS), f"{key}.kind",
                    f"must be one of {list(_EVENT_KINDS)}")
            if e["kind"] == "change_ip":
                _expect(_wire_string(e.get("new_ip")), f"{key}.new_ip",
                        _WIRE_STRING)
                changes.append((key, e))
            else:
                _expect("new_ip" not in e, f"{key}.new_ip",
                        "only valid with kind 'change_ip'")
        # no address has two holders over the run, or routing would hand
        # one holder's packets to the other
        claims = [(f"{key}.ip", c["ip"], f"client {c['id']!r}")
                  for key, c in clients]
        if nat is not None:
            claims.append(("nat.public_ip", nat["public_ip"], "the NAT gateway"))
        claims += [(f"{key}.new_ip", r["new_ip"], "the NAT gateway")
                   for key, r in rotations]
        claims += [(f"{key}.new_ip", e["new_ip"], f"client {e['client']!r}")
                   for key, e in changes]
        holders: dict[str, str] = {}
        for key, ip, holder in claims:
            other = holders.setdefault(ip, holder)
            _expect(other == holder, key, f"{ip} is already used by {other}")

        return cls(**{key: data[key] for key in _ROOT_KEYS})


_ROOT_KEYS = frozenset(f.name for f in fields(ScenarioConfig))


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, or too deep
        raise ConfigError(f"<file>: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"<file>: cannot read ({exc})") from exc
    return ScenarioConfig.from_dict(data)
