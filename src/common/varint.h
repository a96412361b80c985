#ifndef GKS_COMMON_VARINT_H_
#define GKS_COMMON_VARINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gks {

/// LEB128-style variable-length integer encoding used by the on-disk index
/// format. Small values (the common case for Dewey components and deltas)
/// take one byte.
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);

/// The general decoders behind GetVarint32/GetVarint64, for any length.
Status GetVarint32Slow(std::string_view* input, uint32_t* value);
Status GetVarint64Slow(std::string_view* input, uint64_t* value);

/// Decodes a varint from the front of `*input`, advancing it past the
/// consumed bytes. Returns Corruption on truncated or overlong input. A
/// single byte below 0x80 — the common case — is decoded inline; it can
/// be neither truncated, overlong nor too wide.
inline Status GetVarint64(std::string_view* input, uint64_t* value) {
  if (!input->empty() && static_cast<uint8_t>(input->front()) < 0x80) {
    *value = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    return Status::OK();
  }
  return GetVarint64Slow(input, value);
}
inline Status GetVarint32(std::string_view* input, uint32_t* value) {
  if (!input->empty() && static_cast<uint8_t>(input->front()) < 0x80) {
    *value = static_cast<uint8_t>(input->front());
    input->remove_prefix(1);
    return Status::OK();
  }
  return GetVarint32Slow(input, value);
}

/// Length-prefixed string helpers built on the varints above.
void PutLengthPrefixed(std::string* dst, std::string_view value);
Status GetLengthPrefixed(std::string_view* input, std::string* value);

}  // namespace gks

#endif  // GKS_COMMON_VARINT_H_
