"""Inner↔inner communication through the shared outer enclave (§VI-C).

Peer inner enclaves cannot touch each other's memory, but both can touch
their common outer enclave's memory — so a ring buffer placed in the outer
enclave's heap is a communication channel that is (a) invisible to the OS
and to physical attackers (it lives in EPC, behind the MEE) and (b) free
of software encryption (the "MEE" series of Fig. 11).

:class:`SharedRing` is a single-producer single-consumer byte ring with a
tiny header, operated exclusively through a :class:`~repro.sgx.cpu.Core`'s
validated ``read``/``write`` path — every byte moved pays the real
simulated memory-system cost (LLC hits for cache-resident working sets,
MEE lines otherwise), and every access is subject to the Fig. 6 automaton,
so a rogue enclave that merely *holds a reference* to the ring still
cannot use it.

Layout at ``base`` (all little-endian u64): head, tail, capacity, then
``capacity`` data bytes at ``base + 64``.  Messages are framed with a u32
length.  The paper's usage has the channel set up by trusted code the
inner enclaves load into the outer enclave; creation therefore runs on a
core executing the *outer* enclave (or any of its inners).
"""

from __future__ import annotations

from repro.errors import ChannelError
from repro.sgx.cpu import Core

_HEAD_OFF = 0
_TAIL_OFF = 8
_CAP_OFF = 16
_DATA_OFF = 64
_FRAME_HDR = 4


class SharedRing:
    """SPSC byte ring in (outer-)enclave memory."""

    def __init__(self, base: int, capacity: int) -> None:
        if capacity <= _FRAME_HDR:
            raise ChannelError("ring too small")
        self.base = base
        self.capacity = capacity

    # -- setup ------------------------------------------------------------
    def initialise(self, core: Core) -> None:
        core.write_u64(self.base + _HEAD_OFF, 0)
        core.write_u64(self.base + _TAIL_OFF, 0)
        core.write_u64(self.base + _CAP_OFF, self.capacity)

    # -- internals ----------------------------------------------------------
    def _read_wrapped(self, core: Core, pos: int, size: int) -> bytes:
        off = pos % self.capacity
        first = min(size, self.capacity - off)
        data = core.read(self.base + _DATA_OFF + off, first)
        if first < size:
            data += core.read(self.base + _DATA_OFF, size - first)
        return data

    # -- API -----------------------------------------------------------------
    def try_send(self, core: Core, message: bytes) -> bool:
        """Append one framed message; False if the ring lacks space.

        The Fig. 11 sweep sends hundreds of thousands of messages
        through here, so the body is inlined.  The access sequence is
        one 16-byte header read (head and tail share the header
        cacheline), the (possibly wrap-split) frame write, and one tail
        update.
        """
        mlen = len(message)
        need = _FRAME_HDR + mlen
        cap = self.capacity
        if need > cap:
            raise ChannelError(
                f"message of {mlen} bytes exceeds ring capacity")
        base = self.base
        raw = core.read(base, 16)
        from_bytes = int.from_bytes
        head = from_bytes(raw[:8], "little")
        tail = from_bytes(raw[8:], "little")
        if tail - head + need > cap:
            return False
        frame = mlen.to_bytes(_FRAME_HDR, "little") + message
        off = tail % cap
        first = cap - off
        data_base = base + _DATA_OFF
        if need <= first:
            core.write(data_base + off, frame)
        else:
            core.write(data_base + off, frame[:first])
            core.write(data_base, frame[first:])
        core.write_u64(base + _TAIL_OFF, tail + need)
        return True

    def send(self, core: Core, message: bytes) -> None:
        if not self.try_send(core, message):
            raise ChannelError("ring full")

    def try_recv(self, core: Core) -> bytes | None:
        """Pop one message; None if the ring is empty.

        ``head``, ``tail`` and the frame length live in shared memory a
        mutually distrusting peer can write, so they are checked before
        any payload read: more than ``capacity`` bytes in use, or a frame
        longer than what is in use, raises :class:`ChannelError` — no
        read ever leaves ``[base + 64, base + 64 + capacity)``.
        """
        base = self.base
        raw = core.read(base, 16)
        from_bytes = int.from_bytes
        head = from_bytes(raw[:8], "little")
        tail = from_bytes(raw[8:], "little")
        used = tail - head
        if used == 0:
            return None
        if used > self.capacity:
            raise ChannelError("corrupt ring header: more bytes in use "
                               "than the ring holds")
        length = from_bytes(self._read_wrapped(core, head, _FRAME_HDR),
                            "little")
        if used < _FRAME_HDR + length:
            raise ChannelError("truncated frame in ring")
        payload = self._read_wrapped(core, head + _FRAME_HDR, length)
        core.write_u64(base + _HEAD_OFF, head + _FRAME_HDR + length)
        return payload

    def recv(self, core: Core) -> bytes:
        message = self.try_recv(core)
        if message is None:
            raise ChannelError("ring empty")
        return message
