"""The benchmark's three workloads: inputs, one op, and its checks.

Every input is derived from the workload seed and the op index, so the
same seed gives the same ops. fopsim only ever sees the generated inputs.
Functions of fopsim are looked up through their modules at call time, so
the wrappers installed by ``spans.instrument`` apply to them.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field

from fopsim import capture, config, scenario
from fopsim.experiments import table5
from fopsim.experiments.failure import RevisitFailureModel
from fopsim.transport import TcpVariant

RTT_MS = 60
N_SECONDARY = 19

# A count whose binomial tail probability is below this is a failed check.
# It lies beyond 6 sigma, so a correct program trips it about once in
# 10^9 tests, whichever seed the benchmark is given.
TAIL_LIMIT = 1e-9


def op_seed(seed: int, index: int) -> int:
    """A 63-bit seed for op ``index`` of a run with workload seed ``seed``."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def binomial_tail(k: int, n: int, p: float) -> float:
    """Probability of a count at least as far out as ``k`` on its side of
    the mean of Binomial(n, p)."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(j: int) -> float:
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1)
                        - math.lgamma(n - j + 1) + j * log_p + (n - j) * log_q)

    step = 1 if k >= n * p else -1
    total, j = 0.0, k
    while 0 <= j <= n:
        term = pmf(j)
        total += term
        if term < 1e-18 * total or term == 0.0:
            break
        j += step
    return min(1.0, total)


def savings_counts_ok(counts, n: int, model: RevisitFailureModel,
                      revisit: int) -> list[str]:
    """Problems found comparing save-0/1/2 counts with table5_analytic."""
    expected = table5.table5_analytic(model, revisit, N_SECONDARY, RTT_MS,
                                      TcpVariant.TFO).as_tuple()
    problems = []
    for saved, (k, p) in enumerate(zip(counts, expected)):
        tail = binomial_tail(k, n, p)
        if tail < TAIL_LIMIT:
            problems.append(f"r={revisit} save{saved}: {k}/{n}, analytic "
                            f"p={p:.6f}, tail probability {tail:.2e}")
    return problems


@dataclass
class Op:
    index: int
    seed: int
    variant: TcpVariant
    revisit: int = 0
    config: dict | None = None


@dataclass
class Outcome:
    """What an op produced: a canonical digest line plus the public
    counts the traced run compares with its span counts."""

    line: str
    public: dict = field(default_factory=dict)


class Workload:
    name = ""
    trace_ops = 0       # ops in a traced run, fixed so its counters repeat
    worlds_per_op = 1   # Worlds an op builds

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_op(self, index: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        """Run one op; raise on any failed check."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks pooled over the run; returns the problems found."""
        return []


class RevisitPacket(Workload):
    """One Table 5 trial through the packet engine per op."""

    name = "revisit_packet"
    COMBOS = [(v, r) for r in (1, 2, 3) for v in (TcpVariant.TFO, TcpVariant.FOP)]

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.trace_ops = 6 if smoke else 60
        self.model = RevisitFailureModel.reference()
        self.tfo_counts = {r: [0, 0, 0] for r in (1, 2, 3)}

    def make_op(self, index):
        variant, revisit = self.COMBOS[index % len(self.COMBOS)]
        return Op(index, op_seed(self.seed, index), variant, revisit)

    def run(self, op):
        dist = table5.table5_montecarlo(
            self.model, op.revisit, N_SECONDARY, RTT_MS, trials=1,
            seed=op.seed, variant=op.variant, engine="packet")
        probs = dist.as_tuple()
        if sorted(probs) != [0.0, 0.0, 1.0]:
            raise AssertionError(f"one trial gave probabilities {probs}")
        saved = probs.index(1.0)
        if dist.mean_saving_ms != RTT_MS * saved:
            raise AssertionError(f"mean saving {dist.mean_saving_ms} ms for "
                                 f"{saved} RTT saved")
        if op.variant is TcpVariant.FOP and saved != 2:
            raise AssertionError(f"fop trial saved {saved} RTT, not 2")
        if op.index >= 0 and op.variant is TcpVariant.TFO:
            self.tfo_counts[op.revisit][saved] += 1
        return Outcome(f"{op.variant.value} r={op.revisit} seed={op.seed} "
                       f"saved={saved}")

    def finish(self):
        problems = []
        for r, counts in self.tfo_counts.items():
            n = sum(counts)
            if n:
                problems += savings_counts_ok(counts, n, self.model, r)
        return problems


class TrackingLongrun(Workload):
    """One long scripted scenario through ``fopsim run``'s engine per op."""

    name = "tracking_longrun"
    N_CLIENTS = 8
    N_HOSTS = 4
    VISIT_GAP_MS = 60_000

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.trace_ops = 2 if smoke else 8
        self.visits = 40 if smoke else 400

    def make_op(self, index):
        variant = TcpVariant.TFO if index % 2 == 0 else TcpVariant.FOP
        seed = op_seed(self.seed, index)
        return Op(index, seed, variant, config=self.make_config(seed, variant))

    def make_config(self, seed: int, variant: TcpVariant) -> dict:
        """Half the clients share one NAT gateway that rotates its public
        address twice; every client browses under two labels, each its
        own context.

        The first and the last visit are client c0's, to host h0, under
        different labels. That makes the checks hold by construction:
        under tfo, c0's cookie chain on h0 spans the whole run, longer
        than any address stays in use, and joins two labels."""
        rng = random.Random(seed)
        clients = []
        for i in range(self.N_CLIENTS):
            behind_nat = i < self.N_CLIENTS // 2
            ip = f"10.0.0.{2 + i}" if behind_nat else f"203.0.113.{10 + i}"
            clients.append({"id": f"c{i}", "ip": ip, "behind_nat": behind_nat})
        hosts = [{"hostnames": [f"h{i}.example"], "ips": [f"198.51.100.{10 + i}"]}
                 for i in range(self.N_HOSTS)]
        span = self.visits * self.VISIT_GAP_MS
        # half a gap after a visit, so no connection is in flight
        rotations = [{"at_ms": (span * k // 3 // self.VISIT_GAP_MS)
                      * self.VISIT_GAP_MS + self.VISIT_GAP_MS // 2,
                      "new_ip": f"192.0.2.{10 + k}"} for k in (1, 2)]
        visits = []
        last = self.visits - 1
        for k in range(self.visits):
            if k in (0, last):
                client, host, label = 0, 0, "a" if k == 0 else "b"
            else:
                client = rng.randrange(self.N_CLIENTS)
                host = rng.randrange(self.N_HOSTS)
                label = rng.choice("ab")
            visits.append({"at_ms": k * self.VISIT_GAP_MS, "client": f"c{client}",
                           "hostname": f"h{host}.example",
                           "label": f"c{client}-{label}",
                           "context": f"c{client}-{label}"})
        if variant is TcpVariant.TFO:
            checks = [{"kind": "linkage_across_labels", "adversary": "host"},
                      {"kind": "tracking_period_exceeds_ip_baseline"}]
        else:
            checks = [{"kind": "passive_singletons"},
                      {"kind": "no_cleartext_cookie_reuse"},
                      {"kind": "no_linkage_across_labels", "adversary": "passive"}]
        return {"version": 1, "name": f"longrun-{variant.value}",
                "variant": variant.value, "seed": rng.getrandbits(32),
                "one_way_delay_ms": RTT_MS // 2,
                "cookie_lifetime_ms": 86_400_000,
                "clients": clients,
                "nat": {"public_ip": "192.0.2.1", "rotations": rotations},
                "hosts": hosts, "visits": visits, "checks": checks}

    def run(self, op):
        cfg = config.ScenarioConfig.from_dict(op.config)
        result = scenario.run_scenario(cfg)
        path = os.path.join(self.workdir, f"op{op.index}.fopcap")
        try:
            capture.write_capture(path, result.tap_packets)
            back = capture.read_capture(path)
            with open(path, "rb") as fh:
                data = fh.read()
        finally:
            if os.path.exists(path):
                os.remove(path)

        failed = [c["name"] for c in result.checks if not c["passed"]]
        if failed or len(result.checks) != len(op.config["checks"]):
            raise AssertionError(f"scenario checks failed: {failed}")
        if [_wire(t, p) for t, p in back] != [_wire(t, p) for t, p in
                                               result.tap_packets]:
            raise AssertionError("capture round trip changed the packets")
        graphs = (result.passive_graph, result.host_graph, result.ip_graph)
        digest = hashlib.sha256(data).hexdigest()[:16]
        edges = [len(g.edges) for g in graphs]
        return Outcome(
            f"{op.variant.value} seed={op.seed} capture={digest} edges={edges}",
            public={"link_sends": len(result.tap_packets),
                    "edges": sum(edges), "capture_bytes": len(data)})


def _wire(t, pkt) -> tuple:
    """Every packet field a capture keeps (all but simulator bookkeeping)."""
    return (t, pkt.src, pkt.dst, int(pkt.flags), int(pkt.fo_kind),
            pkt.fo_cookie, pkt.ack_len, bytes(pkt.payload))


class RevisitFast(Workload):
    """One million Table 5 trials through the fast Monte Carlo engine."""

    name = "revisit_fast"
    worlds_per_op = 0

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.trace_ops = 3 if smoke else 9
        self.trials = 20_000 if smoke else 1_000_000
        self.model = RevisitFailureModel.reference()

    def make_op(self, index):
        return Op(index, op_seed(self.seed, index), TcpVariant.TFO,
                  revisit=1 + index % 3)

    def run(self, op):
        dist = table5.table5_montecarlo(
            self.model, op.revisit, N_SECONDARY, RTT_MS, trials=self.trials,
            seed=op.seed, variant=TcpVariant.TFO, engine="fast")
        counts = [round(p * self.trials) for p in dist.as_tuple()]
        if sum(counts) != self.trials:
            raise AssertionError(f"counts {counts} do not add up to "
                                 f"{self.trials} trials")
        problems = savings_counts_ok(counts, self.trials, self.model, op.revisit)
        if problems:
            raise AssertionError("; ".join(problems))
        return Outcome(f"r={op.revisit} seed={op.seed} counts={counts}",
                       public={"trials": self.trials})


WORKLOADS = {w.name: w for w in (RevisitPacket, TrackingLongrun, RevisitFast)}
