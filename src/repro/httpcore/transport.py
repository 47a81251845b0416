"""Stream connections whose socket reads allocate nothing.

asyncio's stream transports read with ``sock.recv(256 KiB)``: every read
allocates a fresh 256 KiB ``bytes`` and shrinks it to what arrived.  On a
small heap glibc serves that block from the heap top and trims it again
right after, so each read pays a ``brk`` grow/trim pair in system time.

:class:`BufferedStreamProtocol` is a ``StreamReaderProtocol`` that the
transport drives through the ``BufferedProtocol`` interface instead: the
kernel writes into one preallocated buffer per event-loop thread, and
``buffer_updated`` copies the bytes straight into the connection's
``StreamReader``.  The transport calls ``get_buffer``, ``recv_into`` and
``buffer_updated`` back to back with no await in between, so every
connection on a loop can share the one buffer.

:func:`open_connection` and :func:`start_server` mirror their ``asyncio``
namesakes and hand out the usual ``StreamReader``/``StreamWriter`` pairs.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Awaitable, Callable

#: Bytes one socket read may deliver (asyncio's own ``max_size``).
READ_BUFFER_SIZE = 256 * 1024

_local = threading.local()


def _read_buffer() -> memoryview:
    """This thread's shared read buffer (event loops are per-thread)."""
    try:
        return _local.buffer
    except AttributeError:
        _local.buffer = memoryview(bytearray(READ_BUFFER_SIZE))
        return _local.buffer


class BufferedStreamProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """A ``StreamReaderProtocol`` fed through ``recv_into``."""

    def get_buffer(self, sizehint: int) -> memoryview:
        return _read_buffer()

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(_read_buffer()[:nbytes])


async def open_connection(
    host: str, port: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection`` over :class:`BufferedStreamProtocol`."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(loop=loop)
    protocol = BufferedStreamProtocol(reader, loop=loop)
    transport, _ = await loop.create_connection(lambda: protocol, host, port)
    return reader, asyncio.StreamWriter(transport, protocol, reader, loop)


async def start_server(
    client_connected_cb: Callable[
        [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
    ],
    host: str,
    port: int,
    reuse_port: bool | None = None,
) -> asyncio.Server:
    """``asyncio.start_server`` over :class:`BufferedStreamProtocol`."""
    loop = asyncio.get_running_loop()

    def factory() -> BufferedStreamProtocol:
        reader = asyncio.StreamReader(loop=loop)
        return BufferedStreamProtocol(reader, client_connected_cb, loop=loop)

    return await loop.create_server(factory, host, port, reuse_port=reuse_port)
