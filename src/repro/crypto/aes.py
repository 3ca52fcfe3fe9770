"""Pure-Python AES-128/192/256 block cipher (FIPS-197), T-table form.

The simulator cannot install external crypto packages, so the AES-GCM
baseline channel (paper Fig. 11: "Rijndael AES-GCM encryption operation
supported by Intel SGX SDK cryptography library") is built on this
from-scratch implementation.  The *timing* of the GCM channel in
benchmarks comes from the cost model, not from how fast this Python
runs, but every sealed message still runs it, so it is written for host
speed:

* the state is four 32-bit big-endian column words;
* one round is 16 lookups into four 256-entry tables that combine
  SubBytes, ShiftRows and MixColumns (``_TE``), built once at import
  from :data:`SBOX`;
* decryption uses the equivalent inverse cipher (FIPS-197 §5.3.5): its
  four tables and each key's InvMixColumns'd schedule are built on the
  first :meth:`Aes.decrypt_block`, so encrypt-only users (AES-GCM uses
  only the forward cipher) never pay for them.

Verified against the FIPS-197 appendix vectors and, block for block,
against a textbook round-function implementation in ``tests/crypto/``.
"""

from __future__ import annotations

import functools
import struct

from repro.errors import CryptoError

# -- S-box construction (computed, not pasted, to keep provenance obvious) --

def _build_sbox() -> tuple[list[int], list[int]]:
    # Multiplicative inverse in GF(2^8) via exp/log tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inv(b: int) -> int:
        return 0 if b == 0 else exp[255 - log[b]]

    sbox = [0] * 256
    for b in range(256):
        c = inv(b)
        # Affine transformation.
        res = 0
        for i in range(8):
            bit = ((c >> i) & 1) ^ ((c >> ((i + 4) % 8)) & 1) \
                ^ ((c >> ((i + 5) % 8)) & 1) ^ ((c >> ((i + 6) % 8)) & 1) \
                ^ ((c >> ((i + 7) % 8)) & 1) ^ ((0x63 >> i) & 1)
            res |= bit << i
        sbox[b] = res
    inv_sbox = [0] * 256
    for b, s in enumerate(sbox):
        inv_sbox[s] = b
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()
RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
        0x6C, 0xD8, 0xAB, 0x4D]

_BLOCK = struct.Struct(">4I")


def _rotations(box: list[int], coeffs: tuple[int, int, int, int]
               ) -> tuple[tuple[int, ...], ...]:
    """Four round tables for one column transform: table 0 maps byte x
    to the column ``coeffs · box[x]`` (row 0 in the top byte), tables
    1-3 are its byte rotations, one per source row."""
    def double(b: int) -> int:
        b <<= 1
        return b ^ 0x11B if b & 0x100 else b

    def scale(b: int, k: int) -> int:
        out = 0
        while k:
            if k & 1:
                out ^= b
            b = double(b)
            k >>= 1
        return out

    t0 = [0] * 256
    for x in range(256):
        s = box[x]
        a, b, c, d = (scale(s, k) for k in coeffs)
        t0[x] = (a << 24) | (b << 16) | (c << 8) | d
    tables = [tuple(t0)]
    for r in (8, 16, 24):
        tables.append(tuple(((w >> r) | (w << (32 - r))) & 0xFFFFFFFF
                            for w in t0))
    return tuple(tables)


#: SubBytes + ShiftRows + MixColumns, one table per source row.
_TE = _rotations(SBOX, (2, 1, 1, 3))
#: SubBytes + ShiftRows of the last round, pre-shifted into each row.
_SE = tuple(tuple(s << sh for s in SBOX) for sh in (24, 16, 8, 0))
@functools.lru_cache(maxsize=None)
def _inverse_tables() -> tuple[tuple, tuple]:
    """The decryption twins of ``_TE`` and ``_SE``, built on first use."""
    return (_rotations(INV_SBOX, (14, 9, 13, 11)),
            tuple(tuple(s << sh for s in INV_SBOX) for sh in (24, 16, 8, 0)))


class Aes:
    """AES block cipher with 128/192/256-bit keys."""

    ROUNDS = {16: 10, 24: 12, 32: 14}

    def __init__(self, key: bytes) -> None:
        if len(key) not in self.ROUNDS:
            raise CryptoError(f"bad AES key length {len(key)}")
        self.nr = self.ROUNDS[len(key)]
        self._ek = self._expand_key(key)
        self._dk: tuple[int, ...] = ()

    def _expand_key(self, key: bytes) -> tuple[int, ...]:
        """The 4·(nr+1) round-key words, big-endian, round 0 first."""
        nk = len(key) // 4
        sbox = SBOX
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (self.nr + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((sbox[(temp >> 16) & 0xFF] << 24)
                        | (sbox[(temp >> 8) & 0xFF] << 16)
                        | (sbox[temp & 0xFF] << 8)
                        | sbox[temp >> 24]) ^ (RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = ((sbox[temp >> 24] << 24)
                        | (sbox[(temp >> 16) & 0xFF] << 16)
                        | (sbox[(temp >> 8) & 0xFF] << 8)
                        | sbox[temp & 0xFF])
            words.append(words[i - nk] ^ temp)
        return tuple(words)

    def _decrypt_key(self) -> tuple[int, ...]:
        """Equivalent-inverse schedule: the rounds reversed, with
        InvMixColumns applied to every round key but the outer two."""
        td0, td1, td2, td3 = _inverse_tables()[0]
        sbox = SBOX
        ek = self._ek
        nr = self.nr
        dk = list(ek[4 * nr:4 * nr + 4])
        for rnd in range(nr - 1, 0, -1):
            for w in ek[4 * rnd:4 * rnd + 4]:
                # td_i[SBOX[b]] is InvMixColumns of byte b in row i.
                dk.append(td0[sbox[w >> 24]] ^ td1[sbox[(w >> 16) & 0xFF]]
                          ^ td2[sbox[(w >> 8) & 0xFF]]
                          ^ td3[sbox[w & 0xFF]])
        dk.extend(ek[0:4])
        return tuple(dk)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        te0, te1, te2, te3 = _TE
        rk = self._ek
        s0, s1, s2, s3 = _BLOCK.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for i in range(4, 4 * self.nr, 4):
            t0 = (te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                  ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[i])
            t1 = (te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                  ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[i + 1])
            t2 = (te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                  ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[i + 2])
            s3 = (te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                  ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[i + 3])
            s0, s1, s2 = t0, t1, t2
        b0, b1, b2, b3 = _SE
        i = 4 * self.nr
        return _BLOCK.pack(
            b0[s0 >> 24] ^ b1[(s1 >> 16) & 0xFF] ^ b2[(s2 >> 8) & 0xFF]
            ^ b3[s3 & 0xFF] ^ rk[i],
            b0[s1 >> 24] ^ b1[(s2 >> 16) & 0xFF] ^ b2[(s3 >> 8) & 0xFF]
            ^ b3[s0 & 0xFF] ^ rk[i + 1],
            b0[s2 >> 24] ^ b1[(s3 >> 16) & 0xFF] ^ b2[(s0 >> 8) & 0xFF]
            ^ b3[s1 & 0xFF] ^ rk[i + 2],
            b0[s3 >> 24] ^ b1[(s0 >> 16) & 0xFF] ^ b2[(s1 >> 8) & 0xFF]
            ^ b3[s2 & 0xFF] ^ rk[i + 3])

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError("AES block must be 16 bytes")
        if not self._dk:
            self._dk = self._decrypt_key()
        (td0, td1, td2, td3), (b0, b1, b2, b3) = _inverse_tables()
        rk = self._dk
        s0, s1, s2, s3 = _BLOCK.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for i in range(4, 4 * self.nr, 4):
            t0 = (td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF]
                  ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ rk[i])
            t1 = (td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF]
                  ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ rk[i + 1])
            t2 = (td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF]
                  ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ rk[i + 2])
            s3 = (td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF]
                  ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ rk[i + 3])
            s0, s1, s2 = t0, t1, t2
        i = 4 * self.nr
        return _BLOCK.pack(
            b0[s0 >> 24] ^ b1[(s3 >> 16) & 0xFF] ^ b2[(s2 >> 8) & 0xFF]
            ^ b3[s1 & 0xFF] ^ rk[i],
            b0[s1 >> 24] ^ b1[(s0 >> 16) & 0xFF] ^ b2[(s3 >> 8) & 0xFF]
            ^ b3[s2 & 0xFF] ^ rk[i + 1],
            b0[s2 >> 24] ^ b1[(s1 >> 16) & 0xFF] ^ b2[(s0 >> 8) & 0xFF]
            ^ b3[s3 & 0xFF] ^ rk[i + 2],
            b0[s3 >> 24] ^ b1[(s2 >> 16) & 0xFF] ^ b2[(s1 >> 8) & 0xFF]
            ^ b3[s0 & 0xFF] ^ rk[i + 3])
