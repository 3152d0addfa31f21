// Validates every cryptographic primitive against published test vectors,
// then property-tests round-trips and tamper detection.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "src/common/bytes.h"
#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/merkle.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"
#include "src/crypto/x25519.h"

namespace shield::crypto {
namespace {

Bytes H(std::string_view hex) {
  Bytes b = HexDecode(hex);
  EXPECT_FALSE(b.empty() && !hex.empty()) << "bad hex literal in test";
  return b;
}

// ---------------------------------------------------------------- AES-128

TEST(Aes128Test, Fips197AppendixC) {
  const Bytes key = H("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = H("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(ByteSpan(back, 16)), HexEncode(pt));
}

TEST(Aes128Test, Sp80038aEcbVector) {
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = H("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128Test, EncryptDecryptRoundTripRandomBlocks) {
  Drbg drbg(AsBytes("aes-roundtrip"));
  for (int trial = 0; trial < 200; ++trial) {
    uint8_t key[16], pt[16], ct[16], back[16];
    drbg.Fill(MutableByteSpan(key, 16));
    drbg.Fill(MutableByteSpan(pt, 16));
    Aes128 aes(ByteSpan(key, 16));
    aes.EncryptBlock(pt, ct);
    aes.DecryptBlock(ct, back);
    EXPECT_EQ(0, std::memcmp(pt, back, 16));
  }
}

// ---------------------------------------------------------------- AES-CTR

TEST(AesCtrTest, Sp80038aCtrVector) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes ctr = H("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = H(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::string expect =
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee";
  Bytes ct(pt.size());
  AesCtrTransform(key, ctr.data(), 128, pt, ct);
  EXPECT_EQ(HexEncode(ct), expect);
  // CTR decryption is the same transform.
  Bytes back(ct.size());
  AesCtrTransform(key, ctr.data(), 128, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(AesCtrTest, InPlaceAndUnalignedLengths) {
  Drbg drbg(AsBytes("ctr-lengths"));
  uint8_t key[16], ctr[16];
  drbg.Fill(MutableByteSpan(key, 16));
  drbg.Fill(MutableByteSpan(ctr, 16));
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 33u, 100u, 4096u}) {
    Bytes data(len);
    drbg.Fill(data);
    Bytes original = data;
    AesCtrTransform(ByteSpan(key, 16), ctr, 32, data, data);  // in place
    if (len > 0) {
      EXPECT_NE(data, original) << len;
    }
    AesCtrTransform(ByteSpan(key, 16), ctr, 32, data, data);
    EXPECT_EQ(data, original) << len;
  }
}

TEST(AesCtrTest, CounterWindowWraps) {
  uint8_t ctr[16];
  std::memset(ctr, 0xFF, sizeof(ctr));
  IncrementCounter(ctr, 32, 1);
  // Low 32 bits wrap to zero; upper bits untouched.
  EXPECT_EQ(HexEncode(ByteSpan(ctr, 16)), "ffffffffffffffffffffffff00000000");
  IncrementCounter(ctr, 32, 0x1'0000'0005ULL);  // wraps within window again
  EXPECT_EQ(HexEncode(ByteSpan(ctr, 16)), "ffffffffffffffffffffffff00000005");
}

TEST(AesCtrTest, DistinctCountersGiveDistinctKeystreams) {
  const Bytes key = H("000102030405060708090a0b0c0d0e0f");
  uint8_t c1[16] = {};
  uint8_t c2[16] = {};
  c2[0] = 1;  // differs in the non-incrementing (IV) part
  Bytes zeros(64, 0);
  Bytes s1(64), s2(64);
  AesCtrTransform(key, c1, 32, zeros, s1);
  AesCtrTransform(key, c2, 32, zeros, s2);
  EXPECT_NE(s1, s2);
}

// ---------------------------------------------------------------- AES-CMAC

TEST(CmacTest, Rfc4493Vectors) {
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  struct Case {
    const char* msg_hex;
    const char* tag_hex;
  };
  const Case cases[] = {
      {"", "bb1d6929e95937287fa37d129b756746"},
      {"6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
      {"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411",
       "dfa66747de9ae63030ca32611497c827"},
      {"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"
       "e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
       "51f0bebf7e3b9d92fc49741779363cfe"},
  };
  for (const Case& c : cases) {
    const Mac tag = CmacSign(key, H(c.msg_hex));
    EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())), c.tag_hex);
    EXPECT_TRUE(CmacVerify(key, H(c.msg_hex), ByteSpan(tag.data(), tag.size())));
  }
}

TEST(CmacTest, StreamingMatchesOneShotAtEverySplit) {
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes msg(97);
  Drbg drbg(AsBytes("cmac-split"));
  drbg.Fill(msg);
  const Mac expect = CmacSign(key, msg);
  Cmac cmac(key);
  for (size_t split = 0; split <= msg.size(); ++split) {
    cmac.Reset();
    cmac.Update(ByteSpan(msg.data(), split));
    cmac.Update(ByteSpan(msg.data() + split, msg.size() - split));
    const Mac got = cmac.Finalize();
    EXPECT_EQ(got, expect) << "split at " << split;
  }
}

TEST(CmacTest, RejectsTamperedTag) {
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes msg = ToBytes("attack at dawn");
  Mac tag = CmacSign(key, msg);
  tag[5] ^= 0x01;
  EXPECT_FALSE(CmacVerify(key, msg, ByteSpan(tag.data(), tag.size())));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(HexEncode(Sha256Hash(AsBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(Sha256Hash(AsBytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HexEncode(Sha256Hash(
                AsBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 sha;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    sha.Update(AsBytes(chunk));
  }
  EXPECT_EQ(HexEncode(sha.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Bytes msg(300);
  Drbg drbg(AsBytes("sha-split"));
  drbg.Fill(msg);
  const Sha256Digest expect = Sha256Hash(msg);
  for (size_t split : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 128u, 299u, 300u}) {
    Sha256 sha;
    sha.Update(ByteSpan(msg.data(), split));
    sha.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(sha.Finalize(), expect) << split;
  }
}

// ---------------------------------------------------------------- HMAC/HKDF

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, AsBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256(AsBytes("Jefe"), AsBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = H("000102030405060708090a0b0c");
  const Bytes info = H("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = Hkdf(salt, ikm, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// ---------------------------------------------------------------- SipHash

TEST(SipHashTest, ReferenceVectors) {
  SipHashKey key;
  for (int i = 0; i < 16; ++i) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
  }
  // First entries of the reference implementation's vectors_sip64 table
  // (input = 0x00, 0x0001, ... prefixes of increasing length).
  const uint64_t kExpect[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  };
  Bytes input;
  for (size_t len = 0; len < std::size(kExpect); ++len) {
    EXPECT_EQ(SipHash24(key, input), kExpect[len]) << "len " << len;
    input.push_back(static_cast<uint8_t>(len));
  }
}

TEST(SipHashTest, KeyedAvalanche) {
  SipHashKey k1{}, k2{};
  k2[0] = 1;
  const Bytes msg = ToBytes("bucket-index-input");
  EXPECT_NE(SipHash24(k1, msg), SipHash24(k2, msg));
}

TEST(SipHashTest, DistributesAcrossBuckets) {
  SipHashKey key{};
  key[3] = 0xAB;
  constexpr size_t kBuckets = 64;
  size_t counts[kBuckets] = {};
  for (uint64_t i = 0; i < 64000; ++i) {
    uint8_t k[8];
    StoreLe64(k, i);
    counts[SipHash24(key, ByteSpan(k, 8)) % kBuckets]++;
  }
  for (size_t c : counts) {
    EXPECT_GT(c, 700u);  // expectation 1000, loose 30% band
    EXPECT_LT(c, 1300u);
  }
}

// ---------------------------------------------------------------- ChaCha20

TEST(ChaCha20Test, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2 test vector.
  const Bytes key = H("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = H("000000090000004a00000000");
  uint8_t out[64];
  ChaCha20Block(key.data(), nonce.data(), 1, out);
  EXPECT_EQ(HexEncode(ByteSpan(out, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(DrbgTest, DeterministicSeedIsReproducible) {
  Drbg a(AsBytes("seed"));
  Drbg b(AsBytes("seed"));
  Bytes ba(1000), bb(1000);
  a.Fill(ba);
  b.Fill(bb);
  EXPECT_EQ(ba, bb);
  Drbg c(AsBytes("other-seed"));
  Bytes bc(1000);
  c.Fill(bc);
  EXPECT_NE(ba, bc);
}

TEST(DrbgTest, OsSeededInstancesDiffer) {
  Drbg a, b;
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(DrbgTest, SurvivesRekeyBoundary) {
  Drbg a(AsBytes("rekey"));
  Bytes big(1 << 17);  // crosses the 1024-block rekey threshold
  a.Fill(big);
  // No assertion beyond "did not crash and produced non-constant output".
  EXPECT_NE(big.front(), big.back());
}

TEST(DrbgTest, RekeyEmitsNoRepeatedOrZeroBlocks) {
  // Every 1024 blocks half a block becomes the next key and is erased; the
  // stream must only ever carry the other half (a zeroed or repeated 16-byte
  // chunk would repeat a sealing IV).
  Drbg a(AsBytes("rekey"));
  Bytes big(1 << 17);  // two rekeys
  a.Fill(big);
  std::set<std::string> chunks;
  const std::string zero(16, '\0');
  for (size_t i = 0; i < big.size(); i += 16) {
    const std::string chunk(reinterpret_cast<const char*>(big.data() + i), 16);
    EXPECT_NE(chunk, zero) << "zero chunk at byte " << i;
    chunks.insert(chunk);
  }
  EXPECT_EQ(chunks.size(), big.size() / 16);
}

// ---------------------------------------------------------------- X25519

TEST(X25519Test, Rfc7748Vector1) {
  X25519Key scalar, point;
  const Bytes s = H("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes u = H("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::memcpy(scalar.data(), s.data(), 32);
  std::memcpy(point.data(), u.data(), 32);
  const X25519Key out = X25519(scalar, point);
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), 32)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748Vector2) {
  X25519Key scalar, point;
  const Bytes s = H("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const Bytes u = H("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  std::memcpy(scalar.data(), s.data(), 32);
  std::memcpy(point.data(), u.data(), 32);
  const X25519Key out = X25519(scalar, point);
  EXPECT_EQ(HexEncode(ByteSpan(out.data(), 32)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519Test, DiffieHellmanAgreement) {
  Drbg drbg(AsBytes("x25519-dh"));
  for (int trial = 0; trial < 8; ++trial) {
    X25519Key a, b;
    drbg.Fill(MutableByteSpan(a.data(), a.size()));
    drbg.Fill(MutableByteSpan(b.data(), b.size()));
    const X25519Key pub_a = X25519BasePoint(a);
    const X25519Key pub_b = X25519BasePoint(b);
    const X25519Key shared_ab = X25519(a, pub_b);
    const X25519Key shared_ba = X25519(b, pub_a);
    EXPECT_EQ(shared_ab, shared_ba);
    X25519Key zero{};
    EXPECT_NE(shared_ab, zero);
  }
}

// ---------------------------------------------------------------- Merkle

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  MerkleTree tree(8);
  const Sha256Digest initial_root = tree.Root();
  for (size_t i = 0; i < 8; ++i) {
    MerkleTree t2(8);
    Sha256Digest leaf{};
    leaf[0] = static_cast<uint8_t>(i + 1);
    t2.UpdateLeaf(i, leaf);
    EXPECT_NE(t2.Root(), initial_root) << i;
  }
}

TEST(MerkleTest, ProofVerifies) {
  MerkleTree tree(16);
  Drbg drbg(AsBytes("merkle"));
  for (size_t i = 0; i < 16; ++i) {
    Sha256Digest leaf;
    drbg.Fill(MutableByteSpan(leaf.data(), leaf.size()));
    tree.UpdateLeaf(i, leaf);
  }
  for (size_t i = 0; i < 16; ++i) {
    const auto proof = tree.Prove(i);
    EXPECT_EQ(proof.size(), tree.height());
    EXPECT_TRUE(MerkleTree::Verify(tree.Root(), i, tree.Leaf(i), proof));
    // A forged leaf must not verify.
    Sha256Digest forged = tree.Leaf(i);
    forged[7] ^= 0x80;
    EXPECT_FALSE(MerkleTree::Verify(tree.Root(), i, forged, proof));
  }
}

TEST(MerkleTest, ProofForWrongIndexFails) {
  MerkleTree tree(8);
  Drbg drbg(AsBytes("merkle-idx"));
  for (size_t i = 0; i < 8; ++i) {
    Sha256Digest leaf;
    drbg.Fill(MutableByteSpan(leaf.data(), leaf.size()));
    tree.UpdateLeaf(i, leaf);
  }
  const auto proof = tree.Prove(3);
  EXPECT_FALSE(MerkleTree::Verify(tree.Root(), 4, tree.Leaf(4), proof));
}

// ------------------------------------------- hardware/table backend parity
//
// The AES-NI backend must be byte-identical to the table reference for every
// primitive built on it. Hardware-dependent tests skip cleanly on machines
// (or -DSHIELD_DISABLE_AESNI builds) without AES-NI; batch-CMAC-vs-serial
// runs on the table backend so it exercises the lane logic everywhere.

TEST(BackendTest, DispatchReportsCoherently) {
  const AesBackend active = ActiveAesBackend();
  if (!AesNiAvailable()) {
    EXPECT_EQ(active, AesBackend::kTable);
  }
  EXPECT_STREQ(AesBackendName(AesBackend::kTable), "table-aes");
  EXPECT_STREQ(AesBackendName(AesBackend::kAesNi), "aes-ni");
  // Requesting hardware degrades to the table backend rather than failing
  // when the CPU lacks it.
  const Bytes key = H("000102030405060708090a0b0c0d0e0f");
  Aes128 forced_soft(key, AesBackend::kTable);
  EXPECT_EQ(forced_soft.backend(), AesBackend::kTable);
  Aes128 want_hw(key, AesBackend::kAesNi);
  EXPECT_EQ(want_hw.backend(),
            AesNiAvailable() ? AesBackend::kAesNi : AesBackend::kTable);
}

TEST(BackendTest, HardwareBlockMatchesTable) {
  if (!AesNiAvailable()) {
    GTEST_SKIP() << "AES-NI not available";
  }
  Drbg drbg(AsBytes("backend-block"));
  for (int trial = 0; trial < 100; ++trial) {
    uint8_t key[16], pt[16], hw_ct[16], sw_ct[16], back[16];
    drbg.Fill(MutableByteSpan(key, 16));
    drbg.Fill(MutableByteSpan(pt, 16));
    Aes128 hw(ByteSpan(key, 16), AesBackend::kAesNi);
    Aes128 sw(ByteSpan(key, 16), AesBackend::kTable);
    hw.EncryptBlock(pt, hw_ct);
    sw.EncryptBlock(pt, sw_ct);
    EXPECT_EQ(0, std::memcmp(hw_ct, sw_ct, 16));
    hw.DecryptBlock(hw_ct, back);  // exercises the AESIMC-inverted schedule
    EXPECT_EQ(0, std::memcmp(back, pt, 16));
  }
}

TEST(BackendTest, HardwareMultiBlockMatchesTable) {
  if (!AesNiAvailable()) {
    GTEST_SKIP() << "AES-NI not available";
  }
  Drbg drbg(AsBytes("backend-blocks"));
  uint8_t key[16];
  drbg.Fill(MutableByteSpan(key, 16));
  Aes128 hw(ByteSpan(key, 16), AesBackend::kAesNi);
  Aes128 sw(ByteSpan(key, 16), AesBackend::kTable);
  // Counts straddling the 8-wide interleave boundary, including the tail.
  for (size_t count : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 31u}) {
    Bytes blocks(count * 16);
    drbg.Fill(blocks);
    Bytes hw_out = blocks;
    Bytes sw_out = blocks;
    hw.EncryptBlocks(hw_out.data(), count);
    sw.EncryptBlocks(sw_out.data(), count);
    EXPECT_EQ(hw_out, sw_out) << count << " blocks";
  }
}

TEST(BackendTest, HardwareCmacRfc4493Vectors) {
  if (!AesNiAvailable()) {
    GTEST_SKIP() << "AES-NI not available";
  }
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  CmacKey hw_key(key, AesBackend::kAesNi);
  struct Case {
    const char* msg_hex;
    const char* tag_hex;
  };
  const Case cases[] = {
      {"", "bb1d6929e95937287fa37d129b756746"},
      {"6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
      {"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411",
       "dfa66747de9ae63030ca32611497c827"},
      {"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"
       "e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
       "51f0bebf7e3b9d92fc49741779363cfe"},
  };
  for (const Case& c : cases) {
    Cmac cmac(hw_key);
    cmac.Update(H(c.msg_hex));
    const Mac tag = cmac.Finalize();
    EXPECT_EQ(HexEncode(ByteSpan(tag.data(), tag.size())), c.tag_hex);
  }
}

TEST(BackendTest, HardwareStreamingCmacAtEverySplit) {
  if (!AesNiAvailable()) {
    GTEST_SKIP() << "AES-NI not available";
  }
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes msg(97);
  Drbg drbg(AsBytes("cmac-split-hw"));
  drbg.Fill(msg);
  const Mac expect = CmacSign(key, msg);  // table one-shot reference
  CmacKey hw_key(key, AesBackend::kAesNi);
  Cmac cmac(hw_key);
  for (size_t split = 0; split <= msg.size(); ++split) {
    cmac.Reset();
    cmac.Update(ByteSpan(msg.data(), split));
    cmac.Update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(cmac.Finalize(), expect) << "split at " << split;
  }
}

// Batch CMAC must equal per-message serial CMAC regardless of backend, lane
// count, or ragged/multi-part message shapes. Runs on the table backend so
// the lane bookkeeping is covered on every machine.
TEST(BackendTest, BatchCmacMatchesSerial) {
  Drbg drbg(AsBytes("cmac-batch"));
  const Bytes key = H("2b7e151628aed2a6abf7158809cf4f3c");
  CmacKey ckey(key, AesBackend::kTable);
  // Lengths chosen to hit: empty, sub-block, exact block, block+1, and
  // multi-block lanes finishing on different rounds; counts straddle the
  // kCmacBatchLanes boundary.
  const std::vector<size_t> lens = {0, 1, 15, 16, 17, 32, 33, 100, 255, 256, 700};
  for (size_t count : {1u, 3u, 8u, 9u, 11u}) {
    std::vector<Bytes> payloads(count);
    std::vector<CmacMessage> msgs(count);
    for (size_t i = 0; i < count; ++i) {
      payloads[i].resize(lens[i % lens.size()]);
      drbg.Fill(payloads[i]);
      // Split each payload across two parts to exercise gather across
      // part boundaries.
      const size_t cut = payloads[i].size() / 3;
      msgs[i].Append(ByteSpan(payloads[i].data(), cut));
      msgs[i].Append(ByteSpan(payloads[i].data() + cut, payloads[i].size() - cut));
    }
    std::vector<Mac> tags(count);
    CmacSignBatch(ckey, std::span<const CmacMessage>(msgs.data(), count), tags.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(tags[i], CmacSign(key, payloads[i])) << "lane " << i << " of " << count;
    }
  }
}

// Randomized cross-backend fuzz: ciphertext, round-trip, and tags must be
// byte-identical between the table and hardware implementations for random
// keys, lengths, counters, and counter-window widths.
TEST(BackendTest, FuzzEquivalence) {
  if (!AesNiAvailable()) {
    GTEST_SKIP() << "AES-NI not available";
  }
  Drbg drbg(AsBytes("backend-fuzz"));
  const uint32_t inc_bits_choices[] = {32, 64, 128};
  for (int trial = 0; trial < 300; ++trial) {
    uint8_t key[16], ctr[16];
    drbg.Fill(MutableByteSpan(key, 16));
    drbg.Fill(MutableByteSpan(ctr, 16));
    const size_t len = static_cast<size_t>(drbg.NextUint64() % 1501);
    const uint32_t inc_bits = inc_bits_choices[drbg.NextUint64() % 3];
    Bytes pt(len);
    drbg.Fill(pt);

    Aes128 hw(ByteSpan(key, 16), AesBackend::kAesNi);
    Aes128 sw(ByteSpan(key, 16), AesBackend::kTable);
    Bytes hw_ct(len), sw_ct(len), back(len);
    AesCtrTransform(hw, ctr, inc_bits, pt, hw_ct);
    AesCtrTransform(sw, ctr, inc_bits, pt, sw_ct);
    ASSERT_EQ(hw_ct, sw_ct) << "trial " << trial << " len " << len;
    AesCtrTransform(hw, ctr, inc_bits, hw_ct, back);
    ASSERT_EQ(back, pt) << "trial " << trial;

    CmacKey hw_key(ByteSpan(key, 16), AesBackend::kAesNi);
    CmacKey sw_key(ByteSpan(key, 16), AesBackend::kTable);
    Cmac hw_cmac(hw_key);
    hw_cmac.Update(pt);
    Cmac sw_cmac(sw_key);
    sw_cmac.Update(pt);
    ASSERT_EQ(hw_cmac.Finalize(), sw_cmac.Finalize()) << "trial " << trial;
  }
}

// ------------------------------------------------------- constant-time cmp

TEST(ConstantTimeTest, Basics) {
  const Bytes a = ToBytes("0123456789abcdef");
  Bytes b = a;
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  b[15] ^= 1;
  EXPECT_FALSE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, ByteSpan(a.data(), 15)));
}

}  // namespace
}  // namespace shield::crypto
