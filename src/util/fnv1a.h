// FNV-1a (64-bit) streaming hasher behind every stable fingerprint and
// record digest: campaign space and warm-start fingerprints, the static
// target-profile fingerprint, and DigestRecords. Byte and U64 feed raw
// bytes (U64 little-endian, eight of them); Mix appends a string component
// followed by a \x1f separator, so concatenation ambiguities cannot
// collide. Values are persisted in journals and frozen in goldens, so the
// construction must never change.
#ifndef AFEX_UTIL_FNV1A_H_
#define AFEX_UTIL_FNV1A_H_

#include <cstdint>
#include <string_view>

namespace afex {

class Fnv1aHasher {
 public:
  void Byte(unsigned char c) { h_ = (h_ ^ c) * 0x100000001b3ULL; }
  void Bytes(std::string_view bytes) {
    for (unsigned char c : bytes) {
      Byte(c);
    }
  }
  void U64(uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      Byte(static_cast<unsigned char>(v >> shift));
    }
  }
  void Mix(std::string_view component) {
    Bytes(component);
    Byte(0x1f);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace afex

#endif  // AFEX_UTIL_FNV1A_H_
