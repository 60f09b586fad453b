"""Open-loop HTTP load: Poisson arrivals over keep-alive connections.

Arrivals follow a schedule fixed in advance from the seed, whatever the
server does, so a slow server faces a growing queue rather than less
load.  At most ``connections`` requests are in flight (one per worker
thread, each with its own keep-alive connection); a request due while
every connection is busy waits in the client, and that wait counts,
because every request is timed from when it was *due*.  How late the
generator itself ran (timer oversleep, not queueing) is reported apart.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

import numpy as np


def poisson_offsets(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process of ``rate``/s over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2 + 20))
    offsets = np.cumsum(gaps)
    while offsets[-1] < seconds:  # vanishingly rare: draw more gaps
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, 64))])
    return offsets[offsets < seconds]


def zipf_ranks(n_pool: int, size: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws from a Zipf law truncated to ranks ``0..n_pool-1``."""
    weights = 1.0 / np.arange(1, n_pool + 1) ** exponent
    return rng.choice(n_pool, size=size, p=weights / weights.sum())


@dataclass
class Outcome:
    """One request: perf_counter timestamps and what came back."""

    request: int
    due: float
    picked: float = 0.0  # when a connection became free for it
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # HTTP status; -1 = transport error
    selectivity: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency_from_due(self, miss: float) -> float:
        """Seconds from due to a successful reply.  A refused or failed
        request counts as at least ``miss`` seconds late, so it misses
        every latency limit below ``miss``."""
        if self.ok:
            return self.done - self.due
        return max(self.done - self.due, miss)

    @property
    def lateness(self) -> float:
        """How late the generator sent, beyond any wait for a connection."""
        return self.sent - max(self.due, self.picked)


def connect(host: str, port: int, count: int, timeout: float = 30.0) -> list:
    """``count`` keep-alive connections (opened on first use)."""
    return [http.client.HTTPConnection(host, port, timeout=timeout) for _ in range(count)]


def run_open_loop(
    connections: list,
    bodies: list[bytes],
    dues: list[float],
    request_base: int = 0,
) -> list[Outcome]:
    """Send ``bodies[i]`` at ``dues[i]`` (perf_counter), one worker thread
    per keep-alive connection in ``connections``.

    ``dues`` must be sorted.  Each request carries ``X-Request-Id`` (ids
    start at ``request_base``) so the server's spans can be joined to it.
    Every request is sent, however late: an overloaded step drains its
    backlog before it returns.  Returns one :class:`Outcome` per request,
    in request order, once every request has completed.
    """
    outcomes = [Outcome(request=request_base + i, due=due) for i, due in enumerate(dues)]
    cursor = iter(range(len(outcomes)))
    cursor_lock = threading.Lock()

    def worker(conn) -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            outcome = outcomes[index]
            outcome.picked = time.perf_counter()
            delay = outcome.due - outcome.picked
            if delay > 0:
                time.sleep(delay)
            outcome.sent = time.perf_counter()
            try:
                conn.request(
                    "POST", "/estimate", body=bodies[index],
                    headers={"Content-Type": "application/json",
                             "X-Request-Id": str(outcome.request)},
                )
                response = conn.getresponse()
                payload = response.read()
                outcome.status = response.status
                if response.status == 200:
                    outcome.selectivity = float(json.loads(payload)["selectivity"])
            except (OSError, http.client.HTTPException, ValueError, KeyError):
                outcome.status = -1
                conn.close()  # reconnects on the next request
            outcome.done = time.perf_counter()

    threads = [
        threading.Thread(target=worker, args=(conn,), name=f"loadgen-{i}")
        for i, conn in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def backlog_growing(outcomes: list[Outcome], connections: int) -> bool:
    """Did the client-side queue grow over the step?

    The queue depth seen by a request is how many earlier requests were
    still unsent when it fell due.  The step backlogs when the mean depth
    over its last quarter exceeds that over its first quarter by more
    than two requests per connection (a queue that merely fluctuates
    near capacity stays below that).
    """
    if len(outcomes) < 8:
        return False
    sent = np.array([o.sent for o in outcomes])
    due = np.array([o.due for o in outcomes])
    # depths[i] = #{j < i : sent[j] > due[i]}
    depths = np.tril(sent[None, :] > due[:, None], k=-1).sum(axis=1)
    quarter = max(1, len(depths) // 4)
    return float(depths[-quarter:].mean()) > float(depths[:quarter].mean()) + 2 * connections
