#ifndef GKS_COMMON_LZ_H_
#define GKS_COMMON_LZ_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace gks {

/// Minimal self-contained LZ77 byte codec used by the v2 on-disk index
/// format to wrap whole sections (node table, attribute directory,
/// catalog). The section byte streams are dominated by structural
/// repetition — thousands of near-identical entry encodings and natural-
/// language value strings — which back-references compress far better
/// than the per-field varint tricks alone.
///
/// Stream layout: varint uncompressed size, then a token stream. Each
/// token is a varint `t`: if the low bit is 0, `t >> 1` literal bytes
/// follow inline; if the low bit is 1, the token is a back-reference of
/// length `(t >> 1) + kMinMatch` whose distance follows as a varint.
/// Greedy hash-table matching, 64 KiB window. Output is a deterministic
/// function of the input (required: serialized indexes must be
/// byte-identical across runs and build schedules).
void LzCompress(std::string_view src, std::string* dst);

/// Appends the decompressed bytes to `*out`. Fails with Corruption (the
/// message carries the offending stream offset) on truncated or malformed
/// input, including any mismatch against the declared uncompressed size.
Status LzDecompress(std::string_view src, std::string* out);

/// Reads just the declared uncompressed size. It comes from the stream
/// unchecked: do not size buffers from it (LzDecompress validates it).
Status LzUncompressedSize(std::string_view src, size_t* size);

}  // namespace gks

#endif  // GKS_COMMON_LZ_H_
