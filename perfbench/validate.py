"""Output correctness checks, run by the generator on every response.

Pure functions over plain data, with no imports from the system under
test.  The SUT reports its proxies' configuration timeline (every routing
install with its ``time.monotonic()`` instant, which on Linux is one
system-wide clock shared by both processes); the generator knows when it
sent each request and when the last byte came back.
"""

from __future__ import annotations

import bisect

#: Version a proxy reports while it has no routing configuration.
INACTIVE = "default"


class Timeline:
    """The routing configurations one proxy had installed, in order.

    *installs* are ``(instant, versions)`` pairs: from *instant* on, the
    proxy served exactly *versions*, until the next install.  Before the
    first install the proxy forwards everything to its default upstream.
    """

    def __init__(self, installs: list[tuple[float, frozenset[str] | set[str]]]):
        ordered = sorted(installs, key=lambda item: item[0])
        self.instants = [instant for instant, _ in ordered]
        self.versions = [frozenset(versions) for _, versions in ordered]

    def live_versions(self, start: float, end: float) -> frozenset[str]:
        """Versions of every configuration live at some instant in [start, end]."""
        first = bisect.bisect_right(self.instants, start) - 1
        last = bisect.bisect_right(self.instants, end) - 1
        live: set[str] = set()
        if first < 0:
            live.add(INACTIVE)
        for index in range(max(first, 0), last + 1):
            live |= self.versions[index]
        return frozenset(live)


def version_error(timeline: Timeline, version: str | None, sent: float,
                  done: float) -> str | None:
    """Why *version* cannot have served a request in flight over [sent, done]."""
    if version is None:
        return "missing X-Bifrost-Version"
    live = timeline.live_versions(sent, done)
    if version not in live:
        return f"version {version!r} not live (live: {sorted(live)})"
    return None


def sticky_flips(samples, windows: list[tuple[float, float]]) -> list[int]:
    """Indices of samples whose client changed version inside a sticky window.

    *samples* are ``(client_id, sent, done, version)`` tuples; a sample
    belongs to a window when it was entirely in flight inside it.  Within
    one window, every sample of a client must carry the version that
    client's first sample carried.  Samples sent without a client id are
    skipped: their cookie did not exist yet.
    """
    first_seen: dict[tuple[int, str], str] = {}
    flips = []
    ordered = sorted(range(len(samples)), key=lambda index: samples[index][1])
    for index in ordered:
        client, sent, done, version = samples[index]
        if client is None:
            continue
        for number, (start, end) in enumerate(windows):
            if start <= sent and done <= end:
                key = (number, client)
                expected = first_seen.setdefault(key, version)
                if version != expected:
                    flips.append(index)
                break
    return sorted(flips)


def status_error(label: str, status: int, expected: dict[str, int]) -> str | None:
    want = expected.get(label, 200)
    if status != want:
        return f"{label}: status {status}, expected {want}"
    return None
