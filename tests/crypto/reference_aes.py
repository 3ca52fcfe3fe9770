"""Textbook AES (FIPS-197 round functions, byte-list state).

The differential oracle for the T-table cipher in
:mod:`repro.crypto.aes`: every transformation is spelled out as the
standard defines it (SubBytes, ShiftRows, MixColumns with bit-loop
GF(2^8) multiplication, AddRoundKey), so it is slow but easy to audit.
Only the S-boxes are shared with the production module; they are
checked against FIPS-197 entries in ``test_aes.py``.
"""

from __future__ import annotations

from repro.crypto.aes import INV_SBOX, RCON, SBOX


def _xtime(b: int) -> int:
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def _gmul(a: int, b: int) -> int:
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


class ReferenceAes:
    """AES block cipher with 128/192/256-bit keys, one round function
    per FIPS-197 transformation."""

    ROUNDS = {16: 10, 24: 12, 32: 14}

    def __init__(self, key: bytes) -> None:
        self.nr = self.ROUNDS[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (self.nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into per-round 16-byte keys (column-major state order).
        return [sum(words[4 * r:4 * r + 4], []) for r in range(self.nr + 1)]

    # State is a flat list of 16 bytes in column-major order (as the spec).
    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list[int], box: list[int]) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
            state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
            state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
            state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(4):
            col = state[4 * c:4 * c + 4]
            state[4 * c + 0] = _gmul(col[0], 14) ^ _gmul(col[1], 11) ^ _gmul(col[2], 13) ^ _gmul(col[3], 9)
            state[4 * c + 1] = _gmul(col[0], 9) ^ _gmul(col[1], 14) ^ _gmul(col[2], 11) ^ _gmul(col[3], 13)
            state[4 * c + 2] = _gmul(col[0], 13) ^ _gmul(col[1], 9) ^ _gmul(col[2], 14) ^ _gmul(col[3], 11)
            state[4 * c + 3] = _gmul(col[0], 11) ^ _gmul(col[1], 13) ^ _gmul(col[2], 9) ^ _gmul(col[3], 14)

    def encrypt_block(self, block: bytes) -> bytes:
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, self.nr):
            self._sub_bytes(state, SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state, SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.nr])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        state = list(block)
        self._add_round_key(state, self._round_keys[self.nr])
        for rnd in range(self.nr - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, INV_SBOX)
            self._add_round_key(state, self._round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
