// Sealing service: sgx_seal_data / sgx_unseal_data analogue.
//
// Sealed blobs are bound to the platform ("fuse key") and to the enclave
// measurement, carry AES-CTR confidentiality and CMAC integrity, and admit
// additional authenticated data (AAD) — the monotonic counter value rides
// there in ShieldStore's snapshots.
//
// Blob layout: [ iv:16 | aad_len:4 | pt_len:4 | ciphertext | mac:16 ]
// MAC input:   iv || aad_len || pt_len || aad || ciphertext.
#ifndef SHIELDSTORE_SRC_SGX_SEAL_H_
#define SHIELDSTORE_SRC_SGX_SEAL_H_

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/sgx/enclave.h"

namespace shield::sgx {

class SealingService {
 public:
  // `fuse_key` models the per-CPU root sealing key (16 bytes); the actual
  // sealing keys are derived from it and the enclave measurement, so blobs
  // sealed by one enclave identity do not unseal under another. Both keys'
  // schedules (and the CMAC subkeys) are expanded once, here.
  SealingService(ByteSpan fuse_key, const Measurement& mrenclave);

  Bytes Seal(ByteSpan plaintext, ByteSpan aad) const;

  // Fails with kIntegrityFailure on any tampering of blob or AAD.
  Result<Bytes> Unseal(ByteSpan blob, ByteSpan aad) const;

  static constexpr size_t kOverhead = 16 + 4 + 4 + 16;

 private:
  // `keys` is the 32-byte KDF output: AES-CTR key || CMAC key.
  explicit SealingService(const Bytes& keys);

  // CMAC of the blob header (its first 24 bytes: iv, aad_len, pt_len), then
  // `aad`, then `ciphertext`.
  crypto::Mac BlobMac(ByteSpan blob, ByteSpan aad, ByteSpan ciphertext) const;

  crypto::Aes128 enc_;
  crypto::CmacKey mac_;
};

}  // namespace shield::sgx

#endif  // SHIELDSTORE_SRC_SGX_SEAL_H_
