#include "src/sgx/seal.h"

#include <cstring>

#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"

namespace shield::sgx {

namespace {

// KDF: fuse key x measurement -> (enc, mac) keys, mirroring EGETKEY's
// derivation of seal keys bound to MRENCLAVE.
Bytes DeriveSealKeys(ByteSpan fuse_key, const Measurement& mrenclave) {
  return crypto::Hkdf(ByteSpan(mrenclave.data(), mrenclave.size()), fuse_key,
                      AsBytes("sgx-seal-keys-v1"), 32);
}

}  // namespace

SealingService::SealingService(ByteSpan fuse_key, const Measurement& mrenclave)
    : SealingService(DeriveSealKeys(fuse_key, mrenclave)) {}

SealingService::SealingService(const Bytes& keys)
    : enc_(ByteSpan(keys.data(), 16)), mac_(ByteSpan(keys.data() + 16, 16)) {}

crypto::Mac SealingService::BlobMac(ByteSpan blob, ByteSpan aad, ByteSpan ciphertext) const {
  crypto::CmacMessage message;
  message.Append(blob.subspan(0, 24));
  message.Append(aad);
  message.Append(ciphertext);
  crypto::Mac tag;
  crypto::CmacSignBatch(mac_, std::span<const crypto::CmacMessage>(&message, 1), &tag);
  return tag;
}

Bytes SealingService::Seal(ByteSpan plaintext, ByteSpan aad) const {
  Bytes blob(kOverhead + plaintext.size());
  uint8_t* iv = blob.data();
  crypto::Drbg drbg;  // fresh OS-entropy IV per blob
  drbg.Fill(MutableByteSpan(iv, 16));
  StoreLe32(blob.data() + 16, static_cast<uint32_t>(aad.size()));
  StoreLe32(blob.data() + 20, static_cast<uint32_t>(plaintext.size()));
  uint8_t* ct = blob.data() + 24;
  crypto::AesCtrTransform(enc_, iv, 32, plaintext, MutableByteSpan(ct, plaintext.size()));
  const crypto::Mac tag = BlobMac(blob, aad, ByteSpan(ct, plaintext.size()));
  std::memcpy(blob.data() + 24 + plaintext.size(), tag.data(), tag.size());
  return blob;
}

Result<Bytes> SealingService::Unseal(ByteSpan blob, ByteSpan aad) const {
  if (blob.size() < kOverhead) {
    return Status(Code::kInvalidArgument, "sealed blob too short");
  }
  const uint32_t aad_len = LoadLe32(blob.data() + 16);
  const uint32_t pt_len = LoadLe32(blob.data() + 20);
  if (aad_len != aad.size() || blob.size() != kOverhead + pt_len) {
    return Status(Code::kIntegrityFailure, "sealed blob length fields corrupted");
  }
  const ByteSpan ct = blob.subspan(24, pt_len);
  const crypto::Mac tag = BlobMac(blob, aad, ct);
  if (!ConstantTimeEqual(ByteSpan(tag.data(), tag.size()), blob.subspan(24 + pt_len, 16))) {
    return Status(Code::kIntegrityFailure, "sealed blob MAC mismatch");
  }
  Bytes plaintext(pt_len);
  crypto::AesCtrTransform(enc_, blob.data(), 32, ct, plaintext);
  return plaintext;
}

}  // namespace shield::sgx
