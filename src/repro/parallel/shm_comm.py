"""Zero-copy shared-memory halo exchange (Sec. V-C, scale-out transport).

:class:`ShmCommunicator` is the shared-memory sibling of
:class:`~repro.parallel.process_comm.ProcessCommunicator`: the exact same
``send``/``flush``/``recv``/``pending``/``stats``/``all_delivered`` interface
and the exact same send-side byte accounting, but halo payloads never travel
through a ``multiprocessing.Queue``.  The queue transport pays a pickle plus
a feeder-thread lock round per payload batch; here the sender writes the
payload bytes *in place* into a per-rank-pair ring buffer over
``multiprocessing.shared_memory`` and the queues only carry lightweight
tokens -- ``(tag, offset, shape, dtype, advance)`` headers, a few dozen
bytes regardless of payload size -- so the transport cost approaches a
single memcpy per side.

Ring layout (one segment per *directed* rank pair, single producer / single
consumer)::

    [ header: 64 bytes | data: capacity bytes ]
      released (uint64 at offset 0, written only by the consumer)

The producer keeps a private cumulative ``written`` counter and allocates at
``written % capacity`` (padding over the segment end when a payload would
wrap); free space is ``capacity - (written - released)``.  Each counter has
exactly one writer, so no locks are needed: a stale ``released`` read only
*under*-estimates free space.  The consumer copies the payload out of the
ring on ingest and immediately publishes the new ``released`` value, so ring
space recycles as fast as the receiver touches its communicator at all.

Tokens are shipped *after* the payload bytes are written (program order on
the producer, a pipe read on the consumer), which is what makes the data
visible before the header that describes it.  If a ring fills mid-flush the
producer ships the tokens written so far and drains its own inbound tokens
while waiting -- releasing its peers' rings -- so two mutually-full ranks
can never deadlock.

Capacity is sized by the engine from the exchange model
(:func:`ring_capacity`), several macro cycles deep, so the wait path is a
safety net rather than a steady state.  Segment lifetime is owned by the
*parent* engine process: it creates the segments before spawning workers and
unlinks them on ``close()``/``_terminate()`` and before every respawn;
workers only attach and close.  If the parent itself is SIGKILLed, the
``multiprocessing`` resource tracker (a separate process that survives the
kill) unlinks every still-registered segment -- no ``/dev/shm`` leak either
way.
"""

from __future__ import annotations

import queue as _queue
import struct
import time
from collections import defaultdict, deque
from itertools import groupby
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from .communicator import MessageStats, orphaned, unflushed_note, wait_inbound

__all__ = ["ShmCommunicator", "ShmRing", "ring_capacity", "create_ring_segment"]

#: ring header size: the consumer-written ``released`` counter (uint64 at
#: offset 0) padded to a cache line so header traffic never shares a line
#: with payload bytes
HEADER_BYTES = 64

_RELEASED = struct.Struct("<Q")


def ring_capacity(pair_bytes_per_cycle: float, min_capacity: int = 1 << 16) -> int:
    """Ring data capacity for a pair moving ``pair_bytes_per_cycle``.

    Four cycles deep (run-ahead between two parent commands is bounded by
    one cycle, so 4x keeps the blocking allocator a cold path), rounded up
    to a power of two, never below ``min_capacity``.
    """
    need = 4 * max(0, int(pair_bytes_per_cycle))
    return max(int(min_capacity), 1 << max(1, need - 1).bit_length())


def create_ring_segment(name: str, capacity: int) -> SharedMemory:
    """Create (and zero-initialise the header of) one ring's segment."""
    shm = SharedMemory(name=name, create=True, size=HEADER_BYTES + int(capacity))
    _RELEASED.pack_into(shm.buf, 0, 0)
    return shm


class ShmRing:
    """One endpoint of a directed rank pair's SPSC byte ring.

    The same class serves both roles: the producer only uses
    :meth:`try_allocate`/:meth:`view`, the consumer only
    :meth:`view`/:meth:`release`.  Capacity is derived from the segment
    size, so an attached endpoint needs nothing but the name.
    """

    def __init__(self, shm: SharedMemory):
        self.shm = shm
        self.capacity = shm.size - HEADER_BYTES
        if self.capacity <= 0:
            raise ValueError(f"segment {shm.name!r} is smaller than the ring header")
        #: producer-local cumulative allocated bytes (padding included)
        self.written = 0
        #: consumer-local mirror of the published ``released`` counter
        self.consumed = 0

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        return cls(SharedMemory(name=name))

    # -- producer side --------------------------------------------------
    def released(self) -> int:
        return _RELEASED.unpack_from(self.shm.buf, 0)[0]

    def try_allocate(self, nbytes: int) -> tuple[int, int] | None:
        """Reserve ``nbytes`` contiguous data bytes.

        Returns ``(offset, advance)`` -- where to write and how many ring
        bytes the allocation consumes (``advance > nbytes`` when the tail
        padding skips over the segment end) -- or ``None`` when the ring is
        currently too full.  Raises when the payload can never fit.
        """
        if nbytes > self.capacity:
            raise ValueError(
                f"payload of {nbytes} bytes exceeds the ring capacity "
                f"({self.capacity} bytes) of segment {self.shm.name!r}"
            )
        offset = self.written % self.capacity
        advance = nbytes if offset + nbytes <= self.capacity else (
            self.capacity - offset
        ) + nbytes
        if self.written + advance - self.released() > self.capacity:
            return None
        if offset + nbytes > self.capacity:
            offset = 0
        self.written += advance
        return offset, advance

    # -- both sides ------------------------------------------------------
    def view(self, offset: int, shape: tuple, dtype) -> np.ndarray:
        """An ndarray view straight over the ring's data bytes."""
        return np.ndarray(
            shape, dtype=dtype, buffer=self.shm.buf, offset=HEADER_BYTES + offset
        )

    # -- consumer side ---------------------------------------------------
    def release(self, advance: int) -> None:
        """Publish that ``advance`` more ring bytes may be overwritten."""
        self.consumed += int(advance)
        _RELEASED.pack_into(self.shm.buf, 0, self.consumed)

    def close(self) -> None:
        try:
            self.shm.close()
        except (BufferError, OSError):  # pragma: no cover - shutdown safety
            pass


class ShmCommunicator:
    """One rank's endpoint of the shared-memory halo-exchange fabric.

    ``tx`` maps destination rank to the producer endpoint of this rank's
    outgoing ring, ``rx`` maps source rank to the consumer endpoint of the
    incoming ring; ``inbound``/``outbound`` are the token queues (same
    wiring as the queue transport, but the items are header tuples).
    """

    #: sleep between free-space polls of a full ring (cold path)
    _WAIT_S = 200e-6

    def __init__(
        self,
        rank: int,
        n_ranks: int,
        inbound,
        outbound: dict[int, object],
        tx: dict[int, ShmRing],
        rx: dict[int, ShmRing],
        timeout: float = 120.0,
        parent_pid: int | None = None,
    ):
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range (n_ranks = {n_ranks})")
        self.rank = int(rank)
        self.n_ranks = int(n_ranks)
        self._inbound = inbound
        self._outbound = outbound
        self._tx = dict(tx)
        self._rx = dict(rx)
        self.timeout = timeout
        #: pid of the process that spawned this rank worker; blocking waits
        #: give up once the worker is reparented away from it
        self.parent_pid = parent_pid
        self._mailboxes: dict[tuple[int, int], deque[np.ndarray]] = defaultdict(deque)
        self._staged: dict[int, list[tuple[int, np.ndarray]]] = defaultdict(list)
        self.stats = MessageStats()

    # ------------------------------------------------------------------
    def send(self, payload: np.ndarray, src: int, dst: int, tag: int = 0) -> None:
        """Stage ``payload`` for rank ``dst`` (shipped on :meth:`flush`);
        the logical message is accounted immediately -- byte for byte the
        same accounting as the queue transport."""
        if src != self.rank:
            raise ValueError(f"rank {self.rank} cannot send as rank {src}")
        if not 0 <= dst < self.n_ranks:
            raise ValueError(f"rank {dst} out of range (n_ranks = {self.n_ranks})")
        payload = np.ascontiguousarray(payload)
        self._staged[dst].append((tag, payload))
        self.stats.record(src, dst, payload.nbytes)

    def flush(self) -> None:
        """Write every staged payload into its ring and ship the tokens.

        Halo payloads are tiny (one ``9 x F`` face block each), so per-
        payload ring writes would drown in Python overhead.  Instead each
        contiguous run of equal-shape payloads is written as ONE stacked
        block -- a single allocation, one ``np.stack`` straight into the
        ring, one token ``(tags, offset, block_shape, dtype, advance)`` --
        the same per-destination aggregation the queue transport performs,
        minus the pickle.  One token-queue item per destination per flush,
        except when a ring fills mid-batch: then the tokens written so far
        ship early so the consumer can release the space the rest of the
        batch needs.
        """
        for dst, staged in self._staged.items():
            if not staged:
                continue
            ring = self._tx[dst]
            tokens: list[tuple] = []
            for _, run in groupby(
                staged, key=lambda item: (item[1].shape, item[1].dtype.str)
            ):
                batch = list(run)
                item_nbytes = batch[0][1].nbytes
                # a block must fit in the ring in one piece; chunk wide runs
                # so the blocking allocator can stream them through
                chunk = max(1, ring.capacity // item_nbytes) if item_nbytes else len(batch)
                for start in range(0, len(batch), chunk):
                    part = batch[start : start + chunk]
                    arrays = [payload for _, payload in part]
                    block_shape = (len(arrays),) + arrays[0].shape
                    offset, advance = self._allocate(
                        ring, dst, item_nbytes * len(arrays), tokens
                    )
                    np.stack(
                        arrays, out=ring.view(offset, block_shape, arrays[0].dtype)
                    )
                    tokens.append(
                        (
                            tuple(int(tag) for tag, _ in part),
                            offset,
                            block_shape,
                            arrays[0].dtype.str,
                            advance,
                        )
                    )
            staged.clear()
            self._ship(dst, tokens)

    def _allocate(
        self, ring: ShmRing, dst: int, nbytes: int, tokens: list
    ) -> tuple[int, int]:
        """Reserve ring space, keeping the fabric live while waiting.

        On a full ring the tokens accumulated so far ship immediately (the
        peer cannot release space it has no headers for) and this rank's
        own inbound tokens are drained (releasing the rings *its* peers may
        be blocked on) -- two mutually-full ranks always make progress.
        """
        allocation = ring.try_allocate(nbytes)
        if allocation is not None:
            return allocation
        deadline = time.monotonic() + self.timeout
        while allocation is None:
            self._ship(dst, tokens)
            self._drain()
            if orphaned(self.parent_pid):
                raise RuntimeError(f"rank {self.rank}: parent process is gone")
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"rank {self.rank}: ring to rank {dst} stayed full for "
                    f"{self.timeout:.0f} s ({ring.capacity} byte capacity) -- "
                    "peer died or stopped receiving"
                )
            time.sleep(self._WAIT_S)
            allocation = ring.try_allocate(nbytes)
        return allocation

    def _ship(self, dst: int, tokens: list) -> None:
        if tokens:
            self._outbound[dst].put((self.rank, list(tokens)))
            tokens.clear()

    # ------------------------------------------------------------------
    def recv(self, src: int, dst: int, tag: int = 0) -> np.ndarray:
        """Receive the oldest message on the ``(src, tag)`` channel; blocks."""
        if dst != self.rank:
            raise ValueError(f"rank {self.rank} cannot receive for rank {dst}")
        mailbox = self._mailboxes[(src, tag)]
        deadline = time.monotonic() + self.timeout
        while not mailbox:
            try:
                self._ingest(wait_inbound(self._inbound, self.rank, deadline, self.parent_pid))
            except _queue.Empty:
                raise RuntimeError(
                    f"rank {self.rank}: no halo payload from rank {src} "
                    f"(tag {tag}) within {self.timeout:.0f} s -- peer died or "
                    f"schedule mismatch{unflushed_note(self._staged)}"
                ) from None
        return mailbox.popleft()

    def pending(self, src: int, dst: int, tag: int = 0) -> int:
        """Messages already *arrived* on a channel (in-flight ones are not
        observable; the steppers therefore consume by static count)."""
        if dst != self.rank:
            raise ValueError(f"rank {self.rank} cannot poll for rank {dst}")
        self._drain()
        return len(self._mailboxes[(src, tag)])

    def _ingest(self, item) -> None:
        """Copy each tokenised block out of the ring and release its space.

        Mailbox entries are per-message *copies* (never views of the ring or
        of a shared block), so the ring recycles immediately and a consumed
        message holds no other message's memory alive.
        """
        src, tokens = item
        ring = self._rx[int(src)]
        for tags, offset, shape, dtype, advance in tokens:
            block = ring.view(offset, shape, dtype)
            for index, tag in enumerate(tags):
                self._mailboxes[(int(src), int(tag))].append(block[index].copy())
            ring.release(advance)

    def _drain(self) -> None:
        while True:
            try:
                self._ingest(self._inbound.get_nowait())
            except _queue.Empty:
                return

    def all_delivered(self) -> bool:
        """Whether every staged payload went out and every payload that
        reached this rank has been consumed (same contract and caveats as
        the queue transport: in-flight tokens are unobservable)."""
        self._drain()
        return all(len(staged) == 0 for staged in self._staged.values()) and all(
            len(mailbox) == 0 for mailbox in self._mailboxes.values()
        )

    def close(self) -> None:
        """Detach from every ring segment (workers never unlink -- segment
        lifetime belongs to the parent engine)."""
        for ring in (*self._tx.values(), *self._rx.values()):
            ring.close()
