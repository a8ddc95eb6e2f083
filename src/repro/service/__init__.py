"""Long-lived warm-worker detection service (`kivati serve`).

The fleet plane (:mod:`repro.fleet`) executes *batches*: a pool is
spawned, jobs run, the pool dies with the call. This package is the
*serving* story on top of the same workers: a daemon that keeps the pool
warm across requests (pre-imported interpreter, pre-compiled programs,
pre-read whitelists), speaks a JSON-framed protocol over a Unix-domain
socket, and is engineered to survive crashes, overload, hostile input,
and operator signals — see :mod:`repro.service.daemon` for the
robustness inventory and DESIGN.md §12 for the architecture.

Layers: protocol (framing) < pool (warm process lifecycle, the fleet's
own :class:`repro.fleet.pool.WorkerPool`) < daemon (deadlines, retries,
quarantine, health recycling, admission, drain) < client.
"""

from repro.service.client import (ServiceClient, ServiceUnavailable,
                                  wait_for_socket)
from repro.service.daemon import (KivatiDaemon, SERVICE_JOB_KINDS,
                                  ServicePolicy, ServiceStats)
from repro.service.protocol import (ERROR_KINDS, MAX_FRAME_BYTES,
                                    recv_frame, send_frame)

__all__ = ["ERROR_KINDS", "KivatiDaemon", "MAX_FRAME_BYTES",
           "SERVICE_JOB_KINDS", "ServiceClient", "ServicePolicy",
           "ServiceStats", "ServiceUnavailable", "recv_frame", "send_frame",
           "wait_for_socket"]
