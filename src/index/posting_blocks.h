#ifndef GKS_INDEX_POSTING_BLOCKS_H_
#define GKS_INDEX_POSTING_BLOCKS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "index/posting_list.h"

namespace gks {

/// Block-compressed posting-list storage, the inverted-section payload of
/// on-disk format v2. A sorted Dewey-id list is cut into fixed-size blocks
/// (kPostingBlockSize ids); each block is prefix-delta coded against its
/// own first id, and a skip table up front records every block's first and
/// last id plus its payload extent.
///
/// Blob layout (all integers varint unless noted):
///
///   id_count
///   block_count
///   skip table, one entry per block:
///     count                          ids in this block
///     payload_len                    bytes of this block's payload
///     first id                       ncomps, then raw components
///     last id (front-coded vs first) shared, fresh, fresh raw components
///   payloads, concatenated           block 0 bytes, block 1 bytes, ...
///
/// Block payload: ids 1..count-1 (id 0 lives in the skip entry). Each id is
/// coded against its predecessor: a nibble-packed header byte
/// `shared << 4 | fresh` (0xFF escapes to two varints when either nibble
/// saturates), then the components after the shared prefix. The first
/// divergent component exploits document order — when `shared <
/// prev.ncomps` the successor's component at that depth must exceed the
/// predecessor's, so it is stored as `delta - 1`; the remaining components
/// follow raw. This is what beats the v1 front coder: the hot divergent
/// component (in DBLP, the per-article ordinal, typically a 2-byte varint
/// raw) becomes a 1-byte delta for dense lists.
constexpr size_t kPostingBlockSize = 128;

/// Encodes a document-ordered, duplicate-free id sequence into the blob.
/// Deterministic (byte-identical across runs for equal input).
void EncodeBlockPostings(const PackedIds& ids, std::string* dst);

/// Decodes the blob at the front of `*input`, appending every id to `out`
/// and leaving `*input` positioned after the blob. Validates the whole
/// structure: every block but the last holds exactly kPostingBlockSize
/// ids (the blocking per-block rank bounds index by), each payload is
/// consumed exactly, and each block decodes to the last id its skip entry
/// records. Corruption messages carry offsets relative to the start of
/// the blob; on error `out` holds a partial decode the caller discards.
/// Counts one gks.index.v2.blocks_decoded_total unit per block.
Status DecodeBlockPostings(std::string_view* input, PackedIds* out);

}  // namespace gks

#endif  // GKS_INDEX_POSTING_BLOCKS_H_
