"""Open-loop load generator for the live workloads (a process of its own).

Prints ``ready`` once imported, reads one JSON job from stdin, plays it,
and prints one JSON result line.
The job holds the daemon's UDP and HTTP addresses, the endpoint names, the
seeded event list of :mod:`perfbench.schedule` (times relative to ``t0``
on the shared monotonic clock) and the scrape times.  Each datagram is
built as :class:`repro.service.HeartbeatEmitter` builds it -- heartbeats
carry the endpoint name, the sequence number and ``sigma`` (the due send
time, on the daemon's epoch-anchored clock) and nothing else; controls
carry their ``ctl`` number -- and is put on the one UDP socket when due.

The generator is open-loop: it never waits for the daemon, so a stalled
daemon finds its socket filling up.  It records how late it ran (send
time minus due time).  Scrapes are plain ``GET /metrics`` requests over a
non-blocking socket, one connection at a time, interleaved with the
sends in the same loop; their bodies are checked after the traffic ends.

Run only by :mod:`perfbench.live`.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.net.message import Datagram
from repro.net.udp import encode_datagram

_REQUEST = b"GET /metrics HTTP/1.1\r\nHost: monitor\r\nConnection: close\r\n\r\n"


class _Scrape:
    """One in-flight ``GET /metrics`` on a non-blocking socket."""

    def __init__(self, address: Tuple[str, int], selector: selectors.BaseSelector) -> None:
        self.started = time.monotonic()
        self.finished: Optional[float] = None
        self.chunks: List[bytes] = []
        self._selector = selector
        self._pending = _REQUEST
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.connect_ex(address)
        selector.register(self.sock, selectors.EVENT_WRITE, self)

    def on_ready(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE and self._pending:
            sent = self.sock.send(self._pending)
            self._pending = self._pending[sent:]
            if not self._pending:
                self._selector.modify(self.sock, selectors.EVENT_READ, self)
            return
        chunk = self.sock.recv(1 << 20)
        if chunk:
            self.chunks.append(chunk)
            return
        self.finished = time.monotonic()
        self._selector.unregister(self.sock)
        self.sock.close()


def check_body(raw: bytes, names: List[str]) -> Tuple[int, str]:
    """Parse one scrape response; returns (body bytes, error or "")."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    if not sep or lines[0].split()[1:2] != ["200"]:
        return len(body), f"bad status line {lines[0][:40]!r}"
    length = [l.split(":", 1)[1] for l in lines[1:] if l.lower().startswith("content-length:")]
    if not length or int(length[0]) != len(body):
        return len(body), "body length differs from Content-Length"
    seen = set()
    for line in body.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            float(value)
        except ValueError:
            return len(body), f"unparsable sample {line[:80]!r}"
        start = series.find('endpoint="')
        if start >= 0:
            start += len('endpoint="')
            seen.add(series[start : series.index('"', start)])
    missing = [name for name in names if name not in seen]
    if missing:
        return len(body), f"{len(missing)} endpoints missing, e.g. {missing[0]}"
    return len(body), ""


def play(job: Dict) -> Dict:
    """Send every event of ``job`` on time; scrape when due."""
    names: List[str] = job["names"]
    udp = tuple(job["udp"])
    http = tuple(job["http"]) if job.get("http") else None
    t0 = float(job["t0"])
    epoch = float(job["epoch"])
    events = job["events"]
    scrape_times = [t0 + t for t in job["scrapes"]] if http else []

    selector = selectors.DefaultSelector()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setblocking(False)
    sock.bind(("127.0.0.1", 0))
    selector.register(sock, selectors.EVENT_READ, None)

    late: List[float] = []
    sent_per_endpoint = [0] * len(names)
    controls = acks = 0
    scrape: Optional[_Scrape] = None
    scrapes: List[Dict] = []
    bodies: List[bytes] = []
    index = 0
    while index < len(events) or scrape is not None or scrape_times:
        now = time.monotonic()
        while index < len(events) and t0 + events[index][0] <= now:
            due, kind, endpoint, number, sigma = events[index]
            name = names[endpoint]
            if kind == "heartbeat":
                datagram = Datagram(
                    source=name,
                    destination="monitor",
                    kind="heartbeat",
                    seq=number,
                    timestamp=epoch + t0 + sigma,
                )
                sent_per_endpoint[endpoint] += 1
            else:
                datagram = Datagram(
                    source=name,
                    destination="monitor",
                    kind=kind,
                    payload={"ctl": number},
                    timestamp=epoch + t0 + sigma,
                )
                controls += 1
            sock.sendto(encode_datagram(datagram), udp)
            late.append(time.monotonic() - (t0 + due))
            index += 1
        if scrape is None and scrape_times and scrape_times[0] <= now:
            scrape_times.pop(0)
            scrape = _Scrape(http, selector)
        if scrape is not None and scrape.finished is not None:
            scrapes.append({"start": scrape.started - t0,
                            "seconds": scrape.finished - scrape.started})
            bodies.append(b"".join(scrape.chunks))
            scrape = None
            continue
        deadlines = []
        if index < len(events):
            deadlines.append(t0 + events[index][0])
        if scrape is None and scrape_times:
            deadlines.append(scrape_times[0])
        wait = (min(deadlines) - time.monotonic()) if deadlines else 0.05
        if wait > 0.002 or scrape is not None:
            # epoll rounds its timeout up to whole milliseconds: wake a
            # millisecond early and finish the wait with a precise sleep.
            for key, mask in selector.select(max(0.0, min(wait, 0.05) - 0.001)):
                if key.data is None:
                    acks += _drain(sock)
                else:
                    key.data.on_ready(mask)
        elif wait > 0:
            time.sleep(wait)
    # Let the last control-acks arrive before counting them.
    deadline = time.monotonic() + 0.3
    while time.monotonic() < deadline:
        if selector.select(0.05):
            acks += _drain(sock)
    selector.close()
    sock.close()
    for record, body in zip(scrapes, bodies):
        record["bytes"], record["error"] = check_body(body, names)
    late.sort()
    return {
        "sent": sent_per_endpoint,
        "controls": controls,
        "acks": acks,
        "late_p50_ms": 1e3 * late[len(late) // 2] if late else 0.0,
        "late_p99_ms": 1e3 * late[int(0.99 * (len(late) - 1))] if late else 0.0,
        "late_max_ms": 1e3 * late[-1] if late else 0.0,
        "scrapes": scrapes,
    }


def _drain(sock: socket.socket) -> int:
    count = 0
    while True:
        try:
            sock.recvfrom(65536)
        except BlockingIOError:
            return count
        count += 1


def main() -> int:
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    print(json.dumps(play(job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
