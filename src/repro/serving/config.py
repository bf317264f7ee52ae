"""Serving-tier configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the asyncio query/subscription tier (see SERVING.md)."""

    #: Bind address of the HTTP/WebSocket listener.
    host: str = "127.0.0.1"
    #: Listen port; 0 lets the OS pick (read ``ServingServer.port`` after
    #: ``start()``).
    port: int = 0
    #: Hard cap on the fanout-index cells one subscription may register.
    #: A bbox needing more cells at its resolution is automatically
    #: coarsened until it fits (never rejected).
    max_region_cells: int = 4096
    #: Per-client send queue bound; overflow drops the oldest pending
    #: push and surfaces the count to the client (``dropped`` field).
    client_queue_maxlen: int = 256
    #: Max subscriptions a single client may hold.
    max_subscriptions_per_client: int = 64

    def __post_init__(self) -> None:
        if self.max_region_cells < 1:
            raise ValueError("max_region_cells must be >= 1")
        if self.client_queue_maxlen < 1:
            raise ValueError("client_queue_maxlen must be >= 1")
        if self.max_subscriptions_per_client < 1:
            raise ValueError("max_subscriptions_per_client must be >= 1")
