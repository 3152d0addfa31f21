// Session crypto and the attestation handshake (§3.2).
//
// Handshake (one round trip):
//   client -> server : client X25519 public key || client nonce
//   server -> client : server public key || server nonce || quote
// where the quote's report_data binds the server's DH key and a transcript
// hash, so a man-in-the-middle cannot splice its own key into an honest
// quote. Both sides HKDF the X25519 shared secret (salted with both nonces)
// into four keys: client->server {AES-CTR, CMAC} and server->client
// {AES-CTR, CMAC}.
//
// Record protection: each direction numbers its records; the counter block
// is the record sequence number, and the CMAC covers direction || sequence
// || ciphertext, so records cannot be replayed, reordered, or reflected.
#ifndef SHIELDSTORE_SRC_NET_CHANNEL_H_
#define SHIELDSTORE_SRC_NET_CHANNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/sgx/attestation.h"
#include "src/sgx/enclave.h"

namespace shield::net {

// Per-session record protection. Constructed from the 64 bytes of HKDF
// output; the `is_client` flag selects which half keys which direction.
// Each direction's AES-CTR schedule and CMAC subkeys are expanded once here,
// so sealing or opening a record runs no key expansion.
class SessionCrypto {
 public:
  static constexpr size_t kKeyMaterialSize = 64;

  // encrypt == false disables record protection entirely (the paper's
  // "without network security" ablation in §6.4).
  SessionCrypto(ByteSpan key_material, bool is_client, bool encrypt);

  // Protects an outgoing payload: returns ciphertext || MAC(16).
  Bytes Seal(ByteSpan plaintext);

  // Seals `plaintexts` as consecutive records and appends them to `out`,
  // byte-identical to calling Seal on each in order. The records' MACs are
  // computed kCmacBatchLanes at a time through crypto::CmacSignBatch.
  void SealRun(std::span<const Bytes> plaintexts, std::vector<Bytes>& out);

  // Opens an incoming record; kProtocolError on any forgery or replay.
  Result<Bytes> Open(ByteSpan record);

  bool encrypting() const { return encrypt_; }

 private:
  // One direction's pre-expanded keys and record sequence number.
  struct Direction {
    // `keys` is 32 bytes: AES-CTR key || CMAC key.
    Direction(const uint8_t* keys, uint8_t direction_id);

    crypto::Aes128 enc;
    crypto::CmacKey mac;
    uint8_t id;
    uint64_t seq = 0;
  };

  // Seals `n` <= kCmacBatchLanes payloads into `records` under the next
  // send sequence numbers.
  void SealLanes(const ByteSpan* plaintexts, size_t n, Bytes* records);

  Direction send_;
  Direction recv_;
  bool encrypt_;
};

// --- handshake capability trailer ---
//
// A client may append 4 bytes to its hello: [0x53 'S'][0x54 'T']
// [u8 version=1][u8 flags], flags bit 0 = request trace propagation. The
// server also accepts the plain 48-byte hello (what non-tracing clients
// send) and answers it with a reply that carries no trailer. The trailer
// rides inside the client hello, which the transcript hash already covers,
// so the negotiated capabilities are bound into the attestation quote. The
// reply's echo trailer sits after the quote and is not quote-bound:
// stripping it can only downgrade tracing, never weaken record protection.
inline constexpr uint8_t kHelloExtMagic0 = 0x53;
inline constexpr uint8_t kHelloExtMagic1 = 0x54;
inline constexpr uint8_t kHelloExtVersion = 1;
inline constexpr uint8_t kHelloFlagTracing = 0x01;
inline constexpr size_t kHelloExtBytes = 4;
inline constexpr size_t kLegacyHelloBytes = 32 + 16;

// Frame-level server handshake: consumes a complete client-hello payload and
// produces the reply payload plus the derived session key material. All
// cryptographic steps are enclave work (the caller wraps this in an ECALL).
// The reactor uses this directly once a full hello frame has been buffered;
// the blocking `ServerHandshake` below is a convenience wrapper around it.
struct ServerHandshakeReply {
  Bytes reply;         // server pub || server nonce || quote [|| trailer]
  Bytes key_material;  // HKDF output for SessionCrypto
  bool tracing = false;  // client requested + server granted trace propagation
};
Result<ServerHandshakeReply> ServerHandshakeHello(ByteSpan hello, sgx::Enclave& enclave,
                                                  const sgx::AttestationAuthority& authority);

// Server side of the handshake over a blocking socket; returns the session
// key material.
Result<Bytes> ServerHandshake(int fd, sgx::Enclave& enclave,
                              const sgx::AttestationAuthority& authority);

struct ClientHandshakeOptions {
  bool request_tracing = false;  // append the capability trailer to the hello
};
struct ClientHandshakeResult {
  Bytes key_material;
  bool tracing = false;  // server granted trace propagation
};

// Client side. Verifies the quote through `authority` (the IAS role) and
// checks the measurement against `expected`.
Result<Bytes> ClientHandshake(int fd, const sgx::AttestationAuthority& authority,
                              const sgx::Measurement& expected);

// Client side with capability negotiation. With request_tracing the hello
// carries the trailer and the reply must echo it.
Result<ClientHandshakeResult> ClientHandshakeEx(int fd,
                                                const sgx::AttestationAuthority& authority,
                                                const sgx::Measurement& expected,
                                                const ClientHandshakeOptions& options);

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_CHANNEL_H_
