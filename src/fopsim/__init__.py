"""fopsim: a deterministic laboratory for abbreviated TCP/TLS handshakes.

Simulates three stacks over a discrete-event network: the standard
three-way handshake, Fast Open with plaintext reusable cookies, and a
privacy variant that delivers single-use cookies over the encrypted
channel and caches them per hostname and context. Ships latency and
linkability experiments with analytic oracles and seeded Monte Carlo.
"""

from .adversary import (
    ConnObservation,
    HostObservation,
    LinkageGraph,
    cross_context_links,
    link_host,
    link_ip_baseline,
    link_passive,
    observe,
    tracking_period,
)
from .cookies import ServerCookieKey, mint, validate
from .simcore import (
    Endpoint,
    FoKind,
    Link,
    Packet,
    SimTime,
    Simulator,
    TcpFlags,
)
from .stack import ClientHost, ServerPool, World, schedule_fetch
from .tlschan import (
    ClientSession,
    ClientTlsCache,
    ServerSession,
    SessionTicket,
)
from .transport import TcpVariant, TfoClientCache

__version__ = "0.1.0"
