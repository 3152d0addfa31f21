#include "src/crypto/drbg.h"

#include <sys/random.h>

#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/crypto/sha256.h"

namespace shield::crypto {
namespace {

inline uint32_t Rotl32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl32(d, 16);
  c += d;
  b ^= c;
  b = Rotl32(b, 12);
  a += b;
  d ^= a;
  d = Rotl32(d, 8);
  c += d;
  b ^= c;
  b = Rotl32(b, 7);
}

}  // namespace

void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]) {
  uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = LoadLe32(key + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = LoadLe32(nonce + 4 * i);
  }
  uint32_t working[16];
  std::memcpy(working, state, sizeof(state));
  for (int i = 0; i < 10; ++i) {
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    StoreLe32(out + 4 * i, working[i] + state[i]);
  }
}

Drbg::Drbg() {
  ssize_t got = getrandom(key_.data(), key_.size(), 0);
  if (got != static_cast<ssize_t>(key_.size())) {
    // Fallback: /dev/urandom. Unreachable on any modern kernel.
    FILE* f = std::fopen("/dev/urandom", "rb");
    assert(f != nullptr);
    const size_t n = std::fread(key_.data(), 1, key_.size(), f);
    assert(n == key_.size());
    (void)n;
    std::fclose(f);
  }
}

Drbg::Drbg(ByteSpan seed) {
  const Sha256Digest digest = Sha256Hash(seed);
  std::memcpy(key_.data(), digest.data(), key_.size());
}

void Drbg::Refill() {
  uint8_t nonce[12] = {};
  StoreLe64(nonce, block_counter_++);
  ChaCha20Block(key_.data(), nonce, 0, buffer_.data());
  buffer_pos_ = 0;
  // Fast key erasure: fold part of the output back into the key so earlier
  // outputs cannot be reconstructed from captured state.
  if ((block_counter_ & 0x3FF) == 0) {
    std::memcpy(key_.data(), buffer_.data(), 32);
    std::memset(buffer_.data(), 0, 32);
    buffer_pos_ = 32;  // consume only the half that did not become the key
  }
}

void Drbg::Fill(MutableByteSpan out) {
  size_t offset = 0;
  while (offset < out.size()) {
    if (buffer_pos_ >= buffer_.size()) {
      Refill();
    }
    const size_t n = std::min(out.size() - offset, buffer_.size() - buffer_pos_);
    std::memcpy(out.data() + offset, buffer_.data() + buffer_pos_, n);
    buffer_pos_ += n;
    offset += n;
  }
}

uint64_t Drbg::NextUint64() {
  uint8_t bytes[8];
  Fill(MutableByteSpan(bytes, sizeof(bytes)));
  return LoadLe64(bytes);
}

}  // namespace shield::crypto
