"""The shared substrate of a traffic run: one fabric, many tenant jobs.

:class:`SharedFabric` is :class:`~repro.machine.machine.Fabric` under
the name the traffic layer uses: the one simulator, one NIC TX/RX and
one memory queue per node, the fat-tree link queues and the SHArP
context pool that tenants contend on.  Each tenant is an ordinary
:class:`~repro.machine.machine.Machine` placed on the fabric with a
node map: its ranks are numbered ``0..nranks-1``, so the runtime and
the collectives see a dense job, while ``node_of``/``loc`` return
fabric nodes.  Every shared structure the lower layers index by node —
the NIC and memory queues, ``fabric_stages``, shm-region keys — is
indexed with ``node_of()`` results, so two tenants on disjoint node
sets contend where real jobs would: on the wires, never on each
other's engines.
"""

from repro.machine.machine import Fabric as SharedFabric

__all__ = ["SharedFabric"]
