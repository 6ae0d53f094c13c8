"""Simcalls: the requests a simulated process hands to the kernel.

A simulated process never touches the SURF models directly.  Whenever it
needs something that takes simulated time (executing flops, transferring a
payload, sleeping, waiting for another process...), it hands the kernel a
:class:`Simcall` — the engine handler to run and the arguments to run it
with — by yielding it (generator contexts) or through the context
handoff (thread contexts); the ``submit`` of both contexts in
:mod:`repro.kernel.context` hides which.  The kernel calls the handler
with the requesting process first, and resumes the process with the
result once the corresponding activity completes.

This mirrors SimGrid's simcall mechanism and keeps the user-facing APIs
(s4u, and GRAS, SMPI and AMOK on top of it) thin translation layers.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Simcall"]


class Simcall:
    """One kernel request: the kernel answers it with
    ``handler(process, *args)``."""

    __slots__ = ("handler", "args")

    def __init__(self, handler: Callable, args: tuple = ()) -> None:
        self.handler = handler
        self.args = args
