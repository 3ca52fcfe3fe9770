"""SharedRing (inner↔inner via outer enclave) tests — §VI-C mechanics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.access import NestedValidator
from repro.core.channel import SharedRing
from repro.errors import AccessViolation, ChannelError
from repro.sgx.constants import (PAGE_SIZE, PERM_RW, PT_REG, PT_SECS,
                                 SmallMachineConfig, ST_INITIALIZED)
from repro.sgx.machine import Machine
from repro.sgx.secs import Secs


def make_enclave(machine, base, size):
    secs_frame = machine.epc_alloc.alloc()
    machine.epcm.set(secs_frame, eid=0, page_type=PT_SECS, vaddr=0)
    secs = Secs(eid=secs_frame, base_addr=base, size=size,
                state=ST_INITIALIZED)
    machine.enclaves[secs_frame] = secs
    return secs


def give_pages(machine, space, secs, vaddr, npages):
    for i in range(npages):
        frame = machine.epc_alloc.alloc()
        machine.epcm.set(frame, eid=secs.eid, page_type=PT_REG,
                         vaddr=vaddr + i * PAGE_SIZE, perms=PERM_RW)
        space.map_page(vaddr + i * PAGE_SIZE, frame)


@pytest.fixture
def world():
    """Outer with a 4-page ring region + two associated peer inners."""
    machine = Machine(SmallMachineConfig(), validator_cls=NestedValidator)
    space = machine.new_address_space()
    outer = make_enclave(machine, 0x100000, 8 * PAGE_SIZE)
    give_pages(machine, space, outer, 0x100000, 8)
    inner_a = make_enclave(machine, 0x400000, PAGE_SIZE)
    inner_b = make_enclave(machine, 0x500000, PAGE_SIZE)
    for inner in (inner_a, inner_b):
        inner.outer_eids.append(outer.eid)
        inner.outer_eid = outer.eid
        outer.inner_eids.append(inner.eid)
    core_a, core_b = machine.cores[0], machine.cores[1]
    for core, secs in ((core_a, inner_a), (core_b, inner_b)):
        core.address_space = space
        core.enclave_stack = [outer.eid, secs.eid]
    ring = SharedRing(0x100000, 2 * PAGE_SIZE)
    ring.initialise(core_a)
    return machine, ring, core_a, core_b, outer, inner_a, inner_b


class TestRingBasics:
    def test_send_recv_roundtrip(self, world):
        machine, ring, core_a, core_b, *_ = world
        ring.send(core_a, b"hello from inner A")
        assert ring.recv(core_b) == b"hello from inner A"

    def test_fifo_order(self, world):
        machine, ring, core_a, core_b, *_ = world
        for i in range(5):
            ring.send(core_a, f"msg-{i}".encode())
        for i in range(5):
            assert ring.recv(core_b) == f"msg-{i}".encode()

    def test_empty_recv(self, world):
        machine, ring, core_a, core_b, *_ = world
        assert ring.try_recv(core_b) is None
        with pytest.raises(ChannelError):
            ring.recv(core_b)

    def test_full_ring_backpressure(self, world):
        machine, ring, core_a, core_b, *_ = world
        payload = bytes(1000)
        sent = 0
        while ring.try_send(core_a, payload):
            sent += 1
        assert sent == ring.capacity // (4 + 1000)
        ring.recv(core_b)
        assert ring.try_send(core_a, payload)

    def test_wraparound(self, world):
        machine, ring, core_a, core_b, *_ = world
        payload = bytes(range(256)) * 10  # 2560 B frames
        for _ in range(10):               # > capacity total: must wrap
            ring.send(core_a, payload)
            assert ring.recv(core_b) == payload

    def test_oversized_message_rejected(self, world):
        machine, ring, core_a, core_b, *_ = world
        with pytest.raises(ChannelError):
            ring.send(core_a, bytes(ring.capacity))

    @given(st.lists(st.binary(min_size=0, max_size=300), min_size=1,
                    max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_stream_property(self, messages):
        machine = Machine(SmallMachineConfig(),
                          validator_cls=NestedValidator)
        space = machine.new_address_space()
        outer = make_enclave(machine, 0x100000, 4 * PAGE_SIZE)
        give_pages(machine, space, outer, 0x100000, 4)
        core = machine.cores[0]
        core.address_space = space
        core.enclave_stack = [outer.eid]
        ring = SharedRing(0x100000, 2 * PAGE_SIZE)
        ring.initialise(core)
        received = []
        for message in messages:
            while not ring.try_send(core, message):
                received.append(ring.recv(core))  # make room
        while (got := ring.try_recv(core)) is not None:
            received.append(got)
        assert received == list(messages)


class TestChannelSecurity:
    def test_os_cannot_read_channel(self, world):
        """The ring lives in EPC: non-enclave reads abort (§VI-C: 'OS
        cannot watch and modify any communication messages')."""
        machine, ring, core_a, core_b, *_ = world
        ring.send(core_a, b"confidential")
        snoop = machine.cores[2]
        snoop.address_space = core_a.address_space
        with pytest.raises(AccessViolation):
            snoop.read(0x100000, 64)

    def test_physical_attacker_sees_ciphertext(self, world):
        machine, ring, core_a, core_b, outer, *_ = world
        marker = b"PLAINTEXT-MARKER-0123456789"
        ring.send(core_a, marker)
        epc_pages = machine.epcm.pages_of(outer.eid)
        dram = b"".join(machine.dram_ciphertext(p, PAGE_SIZE)
                        for p in epc_pages)
        assert marker not in dram

    def test_unassociated_enclave_cannot_use_ring(self, world):
        machine, ring, core_a, core_b, outer, *_ = world
        stranger = make_enclave(machine, 0x700000, PAGE_SIZE)
        core = machine.cores[2]
        core.address_space = core_a.address_space
        core.enclave_stack = [stranger.eid]
        with pytest.raises(AccessViolation):
            ring.send(core, b"gatecrash")

    def test_no_gcm_cost_on_ring_path(self, world):
        """The whole point: ring transfers charge MEE/cache, never GCM."""
        machine, ring, core_a, core_b, *_ = world
        snap = machine.counters.snapshot()
        ring.send(core_a, bytes(2048))
        ring.recv(core_b)
        delta = machine.counters.delta_since(snap)
        assert "gcm_seal" not in delta and "gcm_open" not in delta

    def test_forged_header_cannot_read_past_the_ring(self, world):
        """Peer inners can write the shared header.  A tail claiming
        more bytes in use than the ring holds, with a frame length to
        match, must be rejected before the payload read — no read may
        leave the ring, or the receiver returns outer data beyond it."""
        machine, ring, core_a, core_b, *_ = world
        cap = ring.capacity
        end = ring.base + 64 + cap
        core_a.write(0x103000, b"outer data past the ring")
        core_a.write_u64(ring.base + 8, 4 + 3 * cap)
        core_a.write(ring.base + 64, (3 * cap).to_bytes(4, "little"))
        reads = []
        real_read = core_b.read

        def recording_read(vaddr, size):
            reads.append((vaddr, size))
            return real_read(vaddr, size)

        core_b.read = recording_read
        with pytest.raises(ChannelError):
            ring.try_recv(core_b)
        assert reads and all(vaddr + size <= end for vaddr, size in reads)

    def test_ring_too_small_rejected(self):
        with pytest.raises(ChannelError):
            SharedRing(0x1000, 4)
