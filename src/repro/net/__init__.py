"""Asynchronous message-passing network substrate.

The paper's system model (Section II) is an asynchronous message-passing
network with reliable point-to-point channels, crash failures, and -- for
the Section V latency analysis -- bounded per-link delays.  This package
implements that model as a deterministic discrete-event simulation:

* :mod:`repro.net.simulator` -- the event loop (virtual clock + heap).
* :mod:`repro.net.messages` -- the message envelope with normalised size
  accounting (meta-data counts as zero, consistent with the paper).
* :mod:`repro.net.latency` -- per-link-class delay models (tau0 between L1
  servers, tau1 client<->L1, tau2 L1<->L2), fixed and randomised.
* :mod:`repro.net.process` -- the process (I/O-automaton-style) base class.
* :mod:`repro.net.network` -- reliable point-to-point channels, delivery,
  crash bookkeeping and communication-cost tracking.
* :mod:`repro.net.failures` -- crash-failure injection strategies.
* :mod:`repro.net.broadcast` -- the metadata broadcast primitive of [17]
  (relay through a fixed set of f1 + 1 servers).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Simulator": "simulator",
    "Message": "messages",
    "LatencyModel": "latency",
    "LatencyRegime": "latency",
    "FixedLatencyModel": "latency",
    "BoundedLatencyModel": "latency",
    "UniformLatencyModel": "latency",
    "ExponentialLatencyModel": "latency",
    "Process": "process",
    "Network": "network",
    "CommunicationCostTracker": "network",
    "CrashSchedule": "failures",
    "FailureInjector": "failures",
    "BroadcastPrimitive": "broadcast",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
