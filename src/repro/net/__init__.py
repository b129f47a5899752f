"""The HTTP serving tier: wire protocol, admission control, server, client.

The paper's architecture is *server-centric* — the site's machine answers
preference checks — so the system needs a network surface.  This package
provides it with nothing beyond the standard library:

* :mod:`repro.net.protocol` — the versioned JSON wire format and its
  stable error codes;
* :mod:`repro.net.framing` — the one HTTP/1.1 framing (heads,
  ``Content-Length`` bodies, one write per message) that both servers
  and the client share;
* :mod:`repro.net.admission` — the bounded in-flight gate that sheds
  load with 503 + Retry-After instead of drowning the writer;
* :mod:`repro.net.httpd` — :class:`P3PHttpServer`, a threading HTTP
  server over :class:`~repro.server.policy_server.PolicyServer`;
* :mod:`repro.net.client` — :class:`HttpClientAgent`, the thin client
  that registers its APPEL preference once and checks by hash.
"""

from repro.net.admission import AdmissionController
from repro.net.client import HttpClientAgent
from repro.net.httpd import P3PHttpServer, PreferenceRegistry, serve
from repro.net.protocol import (
    PROTOCOL_VERSION,
    BatchCheckRequest,
    BatchCheckResponse,
    CheckRequest,
    CheckResponse,
    ErrorEnvelope,
    InstallPolicyRequest,
    InstallPolicyResponse,
    ProtocolError,
    RegisterPreferenceRequest,
    RegisterPreferenceResponse,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ErrorEnvelope",
    "CheckRequest",
    "CheckResponse",
    "BatchCheckRequest",
    "BatchCheckResponse",
    "RegisterPreferenceRequest",
    "RegisterPreferenceResponse",
    "InstallPolicyRequest",
    "InstallPolicyResponse",
    "AdmissionController",
    "P3PHttpServer",
    "PreferenceRegistry",
    "serve",
    "HttpClientAgent",
]
