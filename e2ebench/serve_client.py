"""The benchmark's own closed-loop HTTP client (stdlib ``http.client``).

It replaces ``repro.service.loadgen`` so that a change to the program's
load generator cannot change the measurement.  ``n_clients`` keep-alive
connections run in threads of one process; client ``c`` sends requests
``c, c + n_clients, ...`` of the fixed sequence back to back (a closed
loop: each caller waits for its reply).  Latency runs from just before
the request is sent to the last byte of the response.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

HEADERS = {"Content-Type": "application/json"}


class Reply:
    __slots__ = ("status", "t0", "t1", "size", "body")

    def __init__(self, status, t0, t1, size, body):
        self.status, self.t0, self.t1, self.size, self.body = (
            status, t0, t1, size, body,
        )

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def post(conn: http.client.HTTPConnection, op: int, path: str, payload: bytes):
    """One request on a keep-alive connection -> (status, body, t0, t1)."""
    headers = dict(HEADERS, **{"X-Bench-Op": str(op)})
    t0 = time.perf_counter()
    conn.request("POST", path, body=payload, headers=headers)
    resp = conn.getresponse()
    body = resp.read()
    return resp.status, body, t0, time.perf_counter()


def closed_loop(host: str, port: int, requests, n_clients: int, keep) -> tuple:
    """Send ``requests`` = [(op, path, body), ...]; returns replies, wall s,
    client CPU s.  ``keep(i)`` says whether to retain reply ``i``'s body."""
    payloads = [json.dumps(body).encode() for _, _, body in requests]
    replies: list = [None] * len(requests)

    def client(c: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for i in range(c, len(requests), n_clients):
                op, path, _ = requests[i]
                try:
                    status, body, t0, t1 = post(conn, op, path, payloads[i])
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=60)
                    now = time.perf_counter()
                    status, body, t0, t1 = 0, str(exc).encode(), now, now
                replies[i] = Reply(
                    status, t0, t1, len(body), body if keep(i) else None
                )
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
        for c in range(n_clients)
    ]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return replies, time.perf_counter() - wall0, time.process_time() - cpu0
