"""AES-GCM tests against NIST SP 800-38D vectors and AEAD laws."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import gcm as gcm_module
from repro.crypto.gcm import AesGcm, Ghash, _gf_mult, _ghash_simple
from repro.errors import CryptoError


class TestNistVectors:
    """Known-answer tests (NIST GCM spec test cases 1-4, AES-128)."""

    def test_case_1_empty(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), b"")
        assert sealed.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_2_zero_block(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), bytes(16))
        assert sealed.hex() == (
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf")

    def test_case_3_four_blocks(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b391aafd255")
        sealed = AesGcm(key).seal(iv, pt)
        assert sealed[:len(pt)].hex() == (
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091473f5985")
        assert sealed[len(pt):].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case_4_with_aad(self):
        key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
        iv = bytes.fromhex("cafebabefacedbaddecaf888")
        pt = bytes.fromhex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b39")
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        sealed = AesGcm(key).seal(iv, pt, aad)
        assert sealed[len(pt):].hex() == "5bc94fbc3221a5db94fae95ae7121a47"


class TestAeadLaws:
    @given(st.binary(max_size=200), st.binary(max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_open_inverts_seal(self, plaintext, aad):
        gcm = AesGcm(bytes(range(16)))
        nonce = b"nonce-123456"
        assert gcm.open(nonce, gcm.seal(nonce, plaintext, aad), aad) \
            == plaintext

    def test_tampered_ciphertext_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = bytearray(gcm.seal(bytes(12), b"attack at dawn"))
        sealed[0] ^= 1
        with pytest.raises(CryptoError):
            gcm.open(bytes(12), bytes(sealed))

    def test_tampered_tag_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = bytearray(gcm.seal(bytes(12), b"attack at dawn"))
        sealed[-1] ^= 1
        with pytest.raises(CryptoError):
            gcm.open(bytes(12), bytes(sealed))

    def test_wrong_aad_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), b"payload", b"aad-1")
        with pytest.raises(CryptoError):
            gcm.open(bytes(12), sealed, b"aad-2")

    def test_wrong_nonce_rejected(self):
        gcm = AesGcm(bytes(16))
        sealed = gcm.seal(bytes(12), b"payload")
        with pytest.raises(CryptoError):
            gcm.open(b"x" * 12, sealed)

    def test_runt_message_rejected(self):
        with pytest.raises(CryptoError):
            AesGcm(bytes(16)).open(bytes(12), b"short")


class TestGf128:
    def test_mult_identity(self):
        # The GCM field's multiplicative identity is x^0 = MSB-first 1<<127.
        one = 1 << 127
        assert _gf_mult(one, 0xDEADBEEF) == 0xDEADBEEF

    def test_mult_commutes(self):
        a, b = 0x1234567890ABCDEF, 0xFEDCBA0987654321
        assert _gf_mult(a, b) == _gf_mult(b, a)

    def test_mult_zero_annihilates(self):
        assert _gf_mult(0, 0xFFFF) == 0


class TestWindowedGhash:
    def test_matches_bit_at_a_time_reference(self):
        rng = random.Random("ghash-windowed")
        for length in (0, 1, 15, 16, 17, 48, 100):
            h, data = rng.randbytes(16), rng.randbytes(length)
            assert Ghash(h).oneshot(data) == _ghash_simple(h, data)

    def test_incremental_matches_oneshot(self):
        rng = random.Random("ghash-incremental")
        h, data = rng.randbytes(16), rng.randbytes(64)
        ghash = Ghash(h)
        for off in range(0, len(data), 16):
            ghash.update_block(data[off:off + 16])
        assert ghash.digest() == \
            Ghash(h).oneshot(data).to_bytes(16, "big")


@pytest.fixture
def empty_key_cache():
    gcm_module._key_cache.clear()
    yield gcm_module._key_cache
    gcm_module._key_cache.clear()


class TestKeyStateCache:
    """Per-key derived state is shared; per-message state is not."""

    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")

    def test_interleaved_instances_match_fresh_ones(self, empty_key_cache):
        # Odd nonce lengths run GHASH for J0 as well as for the tag.
        messages = [(bytes([i + 1]) * (8, 12, 16)[i % 3], b"m" * (7 * i),
                     bytes([i]) * i) for i in range(6)]
        pair = (AesGcm(self.KEY), AesGcm(self.KEY))
        interleaved = [pair[i % 2].seal(*message)
                       for i, message in enumerate(messages)]
        fresh = []
        for message in messages:
            empty_key_cache.clear()
            fresh.append(AesGcm(self.KEY).seal(*message))
        assert interleaved == fresh
        for i, (nonce, plaintext, aad) in enumerate(messages):
            assert pair[1 - i % 2].open(nonce, interleaved[i], aad) == \
                plaintext

    def test_forged_tag_on_cached_key_raises(self, empty_key_cache):
        AesGcm(self.KEY)
        assert self.KEY in empty_key_cache
        gcm = AesGcm(self.KEY)
        sealed = bytearray(gcm.seal(bytes(12), b"attack at dawn"))
        sealed[-1] ^= 1
        with pytest.raises(CryptoError):
            AesGcm(self.KEY).open(bytes(12), bytes(sealed))

    def test_bad_key_length_raises_and_is_not_cached(self,
                                                     empty_key_cache):
        for bad in (bytes(15), bytes(17), b""):
            with pytest.raises(CryptoError):
                AesGcm(bad)
        assert empty_key_cache == {}

    def test_cache_stays_at_its_bound(self, empty_key_cache):
        bound = gcm_module._KEY_CACHE_SIZE
        keys = [i.to_bytes(16, "big") for i in range(bound + 5)]
        for key in keys:
            AesGcm(key)
        assert len(empty_key_cache) == bound
        # Least recently used out first.
        assert list(empty_key_cache) == keys[-bound:]
        assert AesGcm(keys[0]).seal(bytes(12), b"p") == \
            AesGcm(keys[0]).seal(bytes(12), b"p")
        assert len(empty_key_cache) == bound
