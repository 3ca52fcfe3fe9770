"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the software encryption the paper's baseline enclave-to-enclave
channel must run for every message crossing untrusted memory (§VI-C:
"necessitating authenticated encryption mechanisms like AES-GCM"), and the
"GCM" series of Fig. 11.  GHASH is implemented over GF(2^128) with the
standard right-shift reduction and 4-bit window tables; verified against
NIST test vectors in ``tests/crypto/test_gcm.py``.

Callers build many :class:`AesGcm` objects on one key (the sealed DB
builds three per query on its tenant key, minissl one per record), so
everything derived from a key alone (the expanded :class:`Aes`, the hash
subkey H and the GHASH window tables) is kept in one module-level cache
keyed by the key bytes.  The cache holds at most :data:`_KEY_CACHE_SIZE`
keys, least recently used out first, about 30 KB each.  Cached state is
never mutated; GHASH accumulators live in the objects that use them.
"""

from __future__ import annotations

from repro.crypto.aes import Aes
from repro.errors import CryptoError

_R = 0xE1000000000000000000000000000000

#: Keys whose derived state :func:`_key_state` keeps (under 1 MB full).
_KEY_CACHE_SIZE = 16
_key_cache: dict[bytes, tuple[Aes, bytes, tuple]] = {}


def _gf_mult(x: int, y: int) -> int:
    """Multiply two elements of GF(2^128) (GCM bit order)."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _ghash_tables(h: int) -> tuple[tuple[int, ...], ...]:
    """Per-shift 4-bit window tables: ``tables[k][nib]`` is
    ``(nib << 4k)·H`` in GF(2^128), so one block multiply is 32 lookups
    + XORs with no shift-and-reduce loop at all.

    Multiplication by H is linear, so each table is the XOR-closure of
    four powers ``H·x^i``: bit ``j`` of the nibble at shift ``4k`` is
    the coefficient of ``x^(127-4k-j)`` (GCM bit order puts x^0 at the
    top), and multiplying by x is a right shift with reduction.
    """
    powers = []
    for _ in range(128):
        powers.append(h)
        h = (h >> 1) ^ _R if h & 1 else h >> 1
    tables = []
    for k in range(32):
        table = [0]
        for j in range(4):
            power = powers[127 - 4 * k - j]
            table += [t ^ power for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _ghash(tables: tuple, y: int, data: bytes) -> int:
    """Fold ``data`` into the GHASH accumulator ``y`` (a short final
    block is zero-padded)."""
    if len(data) % 16:
        data = data + bytes(-len(data) % 16)
    for off in range(0, len(data), 16):
        y ^= int.from_bytes(data[off:off + 16], "big")
        z = 0
        for table in tables:
            z ^= table[y & 0xF]
            y >>= 4
        y = z
    return y


class Ghash:
    """Incremental GHASH over a fixed hash subkey H."""

    def __init__(self, h: bytes) -> None:
        self._tables = _ghash_tables(int.from_bytes(h, "big"))
        self._y = 0

    def update_block(self, block: bytes) -> None:
        self._y = _ghash(self._tables, self._y, block)

    def oneshot(self, data: bytes) -> int:
        """GHASH of ``data`` from a zero state, without disturbing the
        incremental state (short final blocks are zero-padded)."""
        return _ghash(self._tables, 0, data)

    def digest(self) -> bytes:
        return self._y.to_bytes(16, "big")


def _ghash_simple(h: bytes, data: bytes) -> int:
    """Reference one-shot GHASH (bit-at-a-time); kept as the slow
    cross-check the windowed :class:`Ghash` is tested against."""
    hval = int.from_bytes(h, "big")
    y = 0
    for off in range(0, len(data), 16):
        block = data[off:off + 16].ljust(16, b"\x00")
        y = _gf_mult(y ^ int.from_bytes(block, "big"), hval)
    return y


def _key_state(key: bytes) -> tuple[Aes, bytes, tuple]:
    """(expanded AES, H, GHASH tables) for ``key``, from the cache."""
    key = bytes(memoryview(key))
    state = _key_cache.pop(key, None)
    if state is None:
        aes = Aes(key)  # rejects a bad key length before anything is kept
        h = aes.encrypt_block(bytes(16))
        state = (aes, h, _ghash_tables(int.from_bytes(h, "big")))
        if len(_key_cache) >= _KEY_CACHE_SIZE:
            del _key_cache[next(iter(_key_cache))]
    _key_cache[key] = state
    return state


def _xor(data: bytes, stream: bytes) -> bytes:
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


class AesGcm:
    """AES-GCM seal/open with 12-byte nonces and 16-byte tags."""

    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        self._aes, self._h, self._tables = _key_state(key)

    def _ctr_stream(self, icb: bytes, length: int) -> bytes:
        aes = self._aes
        prefix, ctr = icb[:12], int.from_bytes(icb[12:], "big")
        return b"".join(
            aes.encrypt_block(prefix + ((ctr + i) & 0xFFFFFFFF)
                              .to_bytes(4, "big"))
            for i in range(1, (length + 15) // 16 + 1))[:length]

    def _tag(self, j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        def pad16(b: bytes) -> bytes:
            return b + bytes((-len(b)) % 16)

        lengths = (len(aad) * 8).to_bytes(8, "big") \
            + (len(ciphertext) * 8).to_bytes(8, "big")
        s = _ghash(self._tables, 0, pad16(aad) + pad16(ciphertext) + lengths)
        ek_j0 = self._aes.encrypt_block(j0)
        return (s ^ int.from_bytes(ek_j0, "big")).to_bytes(16, "big")

    def _j0(self, nonce: bytes) -> bytes:
        if len(nonce) == 12:
            return nonce + b"\x00\x00\x00\x01"
        s = _ghash(self._tables, 0,
                   nonce + bytes((-len(nonce)) % 16)
                   + bytes(8) + (len(nonce) * 8).to_bytes(8, "big"))
        return s.to_bytes(16, "big")

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        j0 = self._j0(nonce)
        ciphertext = _xor(plaintext, self._ctr_stream(j0, len(plaintext)))
        return ciphertext + self._tag(j0, aad, ciphertext)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`CryptoError` on forgery."""
        if len(sealed) < self.TAG_LEN:
            raise CryptoError("sealed message shorter than the tag")
        ciphertext, tag = sealed[:-self.TAG_LEN], sealed[-self.TAG_LEN:]
        j0 = self._j0(nonce)
        expected = self._tag(j0, aad, ciphertext)
        # Constant-time comparison is irrelevant in a simulator, but cheap.
        if not _consteq(expected, tag):
            raise CryptoError("GCM tag verification failed")
        return _xor(ciphertext, self._ctr_stream(j0, len(ciphertext)))


def _consteq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
