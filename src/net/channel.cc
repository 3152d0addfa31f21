#include "src/net/channel.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/net/protocol.h"

namespace shield::net {
namespace {

constexpr uint8_t kClientToServer = 0x01;
constexpr uint8_t kServerToClient = 0x02;

// A record's sequence number and direction, [u64 seq LE][u8 direction]:
// the start of its counter block and the MAC's prefix.
constexpr size_t kRecordHeaderSize = 9;
void WriteRecordHeader(uint64_t seq, uint8_t direction, uint8_t out[kRecordHeaderSize]) {
  StoreLe64(out, seq);
  out[8] = direction;
}

Bytes DeriveSessionKeys(const crypto::X25519Key& shared, ByteSpan client_nonce,
                        ByteSpan server_nonce) {
  Bytes salt;
  salt.insert(salt.end(), client_nonce.begin(), client_nonce.end());
  salt.insert(salt.end(), server_nonce.begin(), server_nonce.end());
  return crypto::Hkdf(salt, ByteSpan(shared.data(), shared.size()),
                      AsBytes("shieldstore-session-v1"), SessionCrypto::kKeyMaterialSize);
}

crypto::Sha256Digest TranscriptHash(ByteSpan client_hello, const crypto::X25519Key& server_pub,
                                    ByteSpan server_nonce) {
  crypto::Sha256 sha;
  sha.Update(client_hello);
  sha.Update(ByteSpan(server_pub.data(), server_pub.size()));
  sha.Update(server_nonce);
  return sha.Finalize();
}

}  // namespace

SessionCrypto::Direction::Direction(const uint8_t* keys, uint8_t direction_id)
    : enc(ByteSpan(keys, 16)), mac(ByteSpan(keys + 16, 16)), id(direction_id) {}

// Key material layout: [c2s enc | c2s mac | s2c enc | s2c mac].
SessionCrypto::SessionCrypto(ByteSpan key_material, bool is_client, bool encrypt)
    : send_(key_material.data() + (is_client ? 0 : 32),
            is_client ? kClientToServer : kServerToClient),
      recv_(key_material.data() + (is_client ? 32 : 0),
            is_client ? kServerToClient : kClientToServer),
      encrypt_(encrypt) {}

Bytes SessionCrypto::Seal(ByteSpan plaintext) {
  if (!encrypt_) {
    return Bytes(plaintext.begin(), plaintext.end());
  }
  Bytes record;
  SealLanes(&plaintext, 1, &record);
  return record;
}

void SessionCrypto::SealRun(std::span<const Bytes> plaintexts, std::vector<Bytes>& out) {
  if (!encrypt_) {
    out.insert(out.end(), plaintexts.begin(), plaintexts.end());
    return;
  }
  const size_t first = out.size();
  out.resize(first + plaintexts.size());
  for (size_t base = 0; base < plaintexts.size(); base += crypto::kCmacBatchLanes) {
    const size_t n = std::min(crypto::kCmacBatchLanes, plaintexts.size() - base);
    ByteSpan lanes[crypto::kCmacBatchLanes];
    for (size_t i = 0; i < n; ++i) {
      lanes[i] = plaintexts[base + i];
    }
    SealLanes(lanes, n, &out[first + base]);
  }
}

void SessionCrypto::SealLanes(const ByteSpan* plaintexts, size_t n, Bytes* records) {
  uint8_t headers[crypto::kCmacBatchLanes][kRecordHeaderSize];
  crypto::CmacMessage messages[crypto::kCmacBatchLanes];
  for (size_t i = 0; i < n; ++i) {
    const ByteSpan pt = plaintexts[i];
    const uint64_t seq = send_.seq++;
    records[i].resize(pt.size() + crypto::kCmacSize);
    uint8_t counter[16] = {};
    WriteRecordHeader(seq, send_.id, counter);
    crypto::AesCtrTransform(send_.enc, counter, 32, pt,
                            MutableByteSpan(records[i].data(), pt.size()));
    WriteRecordHeader(seq, send_.id, headers[i]);
    messages[i].Append(ByteSpan(headers[i], kRecordHeaderSize));
    messages[i].Append(ByteSpan(records[i].data(), pt.size()));
  }
  crypto::Mac tags[crypto::kCmacBatchLanes];
  crypto::CmacSignBatch(send_.mac, std::span<const crypto::CmacMessage>(messages, n), tags);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(records[i].data() + plaintexts[i].size(), tags[i].data(), crypto::kCmacSize);
  }
}

Result<Bytes> SessionCrypto::Open(ByteSpan record) {
  if (!encrypt_) {
    return Bytes(record.begin(), record.end());
  }
  if (record.size() < crypto::kCmacSize) {
    return Status(Code::kProtocolError, "record too short");
  }
  const uint64_t seq = recv_.seq;
  const size_t ct_len = record.size() - crypto::kCmacSize;
  uint8_t header[kRecordHeaderSize];
  WriteRecordHeader(seq, recv_.id, header);
  crypto::CmacMessage message;
  message.Append(ByteSpan(header, sizeof(header)));
  message.Append(record.subspan(0, ct_len));
  crypto::Mac mac;
  crypto::CmacSignBatch(recv_.mac, std::span<const crypto::CmacMessage>(&message, 1), &mac);
  if (!ConstantTimeEqual(ByteSpan(mac.data(), mac.size()), record.subspan(ct_len))) {
    return Status(Code::kProtocolError, "record authentication failed");
  }
  ++recv_.seq;
  Bytes plaintext(ct_len);
  uint8_t counter[16] = {};
  WriteRecordHeader(seq, recv_.id, counter);
  crypto::AesCtrTransform(recv_.enc, counter, 32, record.subspan(0, ct_len), plaintext);
  return plaintext;
}

Result<ServerHandshakeReply> ServerHandshakeHello(ByteSpan hello, sgx::Enclave& enclave,
                                                  const sgx::AttestationAuthority& authority) {
  bool extended = false;
  uint8_t client_flags = 0;
  if (hello.size() == kLegacyHelloBytes + kHelloExtBytes) {
    const uint8_t* ext = hello.data() + kLegacyHelloBytes;
    if (ext[0] != kHelloExtMagic0 || ext[1] != kHelloExtMagic1 ||
        ext[2] != kHelloExtVersion) {
      return Status(Code::kProtocolError, "bad client hello");
    }
    extended = true;
    client_flags = ext[3];
  } else if (hello.size() != kLegacyHelloBytes) {
    return Status(Code::kProtocolError, "bad client hello");
  }
  crypto::X25519Key client_pub;
  std::memcpy(client_pub.data(), hello.data(), 32);
  const ByteSpan client_nonce(hello.data() + 32, 16);

  crypto::X25519Key server_priv;
  enclave.ReadRand(MutableByteSpan(server_priv.data(), server_priv.size()));
  const crypto::X25519Key server_pub = crypto::X25519BasePoint(server_priv);
  uint8_t server_nonce[16];
  enclave.ReadRand(MutableByteSpan(server_nonce, sizeof(server_nonce)));

  // Quote binds the server DH key and transcript into report_data.
  const crypto::Sha256Digest transcript =
      TranscriptHash(hello, server_pub, ByteSpan(server_nonce, 16));
  Bytes report_data;
  report_data.insert(report_data.end(), server_pub.begin(), server_pub.end());
  report_data.insert(report_data.end(), transcript.begin(), transcript.end());
  const sgx::Quote quote = authority.GenerateQuote(enclave, report_data);

  ServerHandshakeReply out;
  out.reply.insert(out.reply.end(), server_pub.begin(), server_pub.end());
  out.reply.insert(out.reply.end(), server_nonce, server_nonce + 16);
  const Bytes quote_wire = quote.Serialize();
  out.reply.insert(out.reply.end(), quote_wire.begin(), quote_wire.end());
  if (extended) {
    // Echo the trailer with the granted capability bits; a legacy hello gets
    // the byte-identical legacy reply.
    out.tracing = (client_flags & kHelloFlagTracing) != 0;
    const uint8_t granted = out.tracing ? kHelloFlagTracing : 0;
    const uint8_t trailer[kHelloExtBytes] = {kHelloExtMagic0, kHelloExtMagic1,
                                             kHelloExtVersion, granted};
    out.reply.insert(out.reply.end(), trailer, trailer + kHelloExtBytes);
  }

  const crypto::X25519Key shared = crypto::X25519(server_priv, client_pub);
  out.key_material = DeriveSessionKeys(shared, client_nonce, ByteSpan(server_nonce, 16));
  return out;
}

Result<Bytes> ServerHandshake(int fd, sgx::Enclave& enclave,
                              const sgx::AttestationAuthority& authority) {
  Result<Bytes> hello = RecvFrame(fd);
  if (!hello.ok()) {
    return hello.status();
  }
  Result<ServerHandshakeReply> reply = ServerHandshakeHello(*hello, enclave, authority);
  if (!reply.ok()) {
    return reply.status();
  }
  if (Status s = SendFrame(fd, reply->reply); !s.ok()) {
    return s;
  }
  return std::move(reply->key_material);
}

Result<Bytes> ClientHandshake(int fd, const sgx::AttestationAuthority& authority,
                              const sgx::Measurement& expected) {
  Result<ClientHandshakeResult> r =
      ClientHandshakeEx(fd, authority, expected, ClientHandshakeOptions{});
  if (!r.ok()) {
    return r.status();
  }
  return std::move(r->key_material);
}

Result<ClientHandshakeResult> ClientHandshakeEx(int fd,
                                                const sgx::AttestationAuthority& authority,
                                                const sgx::Measurement& expected,
                                                const ClientHandshakeOptions& options) {
  crypto::Drbg rng;
  crypto::X25519Key client_priv;
  rng.Fill(MutableByteSpan(client_priv.data(), client_priv.size()));
  const crypto::X25519Key client_pub = crypto::X25519BasePoint(client_priv);
  uint8_t client_nonce[16];
  rng.Fill(MutableByteSpan(client_nonce, sizeof(client_nonce)));

  Bytes hello;
  hello.insert(hello.end(), client_pub.begin(), client_pub.end());
  hello.insert(hello.end(), client_nonce, client_nonce + 16);
  const bool extended = options.request_tracing;
  if (extended) {
    const uint8_t trailer[kHelloExtBytes] = {kHelloExtMagic0, kHelloExtMagic1,
                                             kHelloExtVersion, kHelloFlagTracing};
    hello.insert(hello.end(), trailer, trailer + kHelloExtBytes);
  }
  if (Status s = SendFrame(fd, hello); !s.ok()) {
    return s;
  }

  Result<Bytes> reply = RecvFrame(fd);
  if (!reply.ok()) {
    return reply.status();
  }
  const size_t base = 32 + 16 + sgx::Quote::kSerializedSize;
  ClientHandshakeResult out;
  if (extended) {
    // The server always echoes the trailer it was sent; anything else is a
    // protocol violation.
    if (reply->size() != base + kHelloExtBytes) {
      return Status(Code::kProtocolError, "bad server hello");
    }
    const uint8_t* ext = reply->data() + base;
    if (ext[0] != kHelloExtMagic0 || ext[1] != kHelloExtMagic1 ||
        ext[2] != kHelloExtVersion) {
      return Status(Code::kProtocolError, "bad server hello");
    }
    out.tracing = (ext[3] & kHelloFlagTracing) != 0;
  } else if (reply->size() != base) {
    return Status(Code::kProtocolError, "bad server hello");
  }
  crypto::X25519Key server_pub;
  std::memcpy(server_pub.data(), reply->data(), 32);
  const ByteSpan server_nonce(reply->data() + 32, 16);
  Result<sgx::Quote> quote =
      sgx::Quote::Deserialize(ByteSpan(reply->data() + 48, sgx::Quote::kSerializedSize));
  if (!quote.ok()) {
    return quote.status();
  }

  // Remote attestation: authentic quote, expected enclave, bound DH key.
  if (!authority.VerifyQuote(*quote)) {
    return Status(Code::kProtocolError, "attestation quote verification failed");
  }
  if (!ConstantTimeEqual(ByteSpan(quote->mrenclave.data(), 32), ByteSpan(expected.data(), 32))) {
    return Status(Code::kProtocolError, "unexpected enclave measurement");
  }
  const crypto::Sha256Digest transcript = TranscriptHash(hello, server_pub, server_nonce);
  Bytes expected_report;
  expected_report.insert(expected_report.end(), server_pub.begin(), server_pub.end());
  expected_report.insert(expected_report.end(), transcript.begin(), transcript.end());
  if (!ConstantTimeEqual(ByteSpan(quote->report_data.data(), expected_report.size()),
                         expected_report)) {
    return Status(Code::kProtocolError, "quote does not bind the server key exchange");
  }

  const crypto::X25519Key shared = crypto::X25519(client_priv, server_pub);
  out.key_material = DeriveSessionKeys(shared, ByteSpan(client_nonce, 16), server_nonce);
  return out;
}

}  // namespace shield::net
