#include "index/posting_blocks.h"

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "common/varint.h"

namespace gks {
namespace {

// v2 storage instrument (docs/OBSERVABILITY.md): one unit per block a
// load decodes.
Counter* BlocksDecodedCounter() {
  static Counter* counter = MetricsRegistry::Global().GetCounter(
      "gks.index.v2.blocks_decoded_total");
  return counter;
}

size_t SharedPrefix(DeweySpan a, DeweySpan b) {
  size_t n = std::min(a.size, b.size);
  size_t s = 0;
  while (s < n && a.data[s] == b.data[s]) ++s;
  return s;
}

void EncodeDeltaId(DeweySpan prev, DeweySpan id, std::string* dst) {
  const uint32_t shared = static_cast<uint32_t>(SharedPrefix(prev, id));
  const uint32_t fresh = id.size - shared;  // >= 1: ids are distinct + sorted
  if (shared < 15 && fresh < 15) {
    dst->push_back(static_cast<char>((shared << 4) | fresh));
  } else {
    dst->push_back(static_cast<char>(0xff));
    PutVarint32(dst, shared);
    PutVarint32(dst, fresh);
  }
  uint32_t c = shared;
  if (shared < prev.size) {
    // Document order guarantees id[shared] > prev[shared] when the ids
    // diverge before prev ends, so the delta is stored off-by-one.
    PutVarint32(dst, id.data[c] - prev.data[c] - 1);
    ++c;
  }
  for (; c < id.size; ++c) PutVarint32(dst, id.data[c]);
}

// Decodes one delta-coded id in place over its predecessor's components.
Status DecodeDeltaId(std::string_view* in, std::vector<uint32_t>* comps) {
  uint8_t header = 0;
  if (in->empty()) return Status::Corruption("posting block truncated");
  header = static_cast<uint8_t>(in->front());
  in->remove_prefix(1);
  uint32_t shared, fresh;
  if (header != 0xff) {
    shared = header >> 4;
    fresh = header & 0x0f;
  } else {
    GKS_RETURN_IF_ERROR(GetVarint32(in, &shared));
    GKS_RETURN_IF_ERROR(GetVarint32(in, &fresh));
  }
  if (fresh == 0 || shared > comps->size() ||
      shared + fresh > (1u << 20)) {
    return Status::Corruption("posting block delta header out of range");
  }
  uint32_t first = 0;
  GKS_RETURN_IF_ERROR(GetVarint32(in, &first));
  if (shared < comps->size()) first += (*comps)[shared] + 1;
  comps->resize(shared + fresh);
  (*comps)[shared] = first;
  for (uint32_t c = shared + 1; c < shared + fresh; ++c) {
    GKS_RETURN_IF_ERROR(GetVarint32(in, &(*comps)[c]));
  }
  return Status::OK();
}

void PutRawId(DeweySpan id, std::string* dst) {
  PutVarint32(dst, id.size);
  for (uint32_t c = 0; c < id.size; ++c) PutVarint32(dst, id.data[c]);
}

// One skip-table entry: the block's id count, payload extent, and first
// and last id.
struct SkipEntry {
  uint32_t count = 0;
  uint32_t payload_len = 0;
  std::vector<uint32_t> first;
  std::vector<uint32_t> last;
};

Status ReadSkipEntry(std::string_view* in, SkipEntry* entry) {
  GKS_RETURN_IF_ERROR(GetVarint32(in, &entry->count));
  GKS_RETURN_IF_ERROR(GetVarint32(in, &entry->payload_len));
  uint32_t ncomps = 0;
  GKS_RETURN_IF_ERROR(GetVarint32(in, &ncomps));
  if (ncomps == 0 || ncomps > (1u << 20)) {
    return Status::Corruption("posting block first id malformed");
  }
  entry->first.resize(ncomps);
  for (uint32_t c = 0; c < ncomps; ++c) {
    GKS_RETURN_IF_ERROR(GetVarint32(in, &entry->first[c]));
  }
  uint32_t shared = 0, fresh = 0;
  GKS_RETURN_IF_ERROR(GetVarint32(in, &shared));
  GKS_RETURN_IF_ERROR(GetVarint32(in, &fresh));
  // shared==ncomps && fresh==0 means last == first, impossible for a
  // multi-id block of distinct sorted ids.
  if (shared > ncomps || fresh > (1u << 20) - shared ||
      (entry->count > 1 && fresh == 0 && shared == ncomps)) {
    return Status::Corruption("posting block last id malformed");
  }
  entry->last.assign(entry->first.begin(), entry->first.begin() + shared);
  entry->last.resize(shared + fresh);
  for (uint32_t c = shared; c < shared + fresh; ++c) {
    GKS_RETURN_IF_ERROR(GetVarint32(in, &entry->last[c]));
  }
  return Status::OK();
}

// Appends block `b`'s ids to `out`: the skip entry's first id, then the
// delta-coded payload, which must end exactly at the entry's last id.
Status DecodeBlock(uint64_t b, const SkipEntry& entry,
                   std::string_view payload, PackedIds* out) {
  out->Add(DeweySpan{entry.first.data(),
                     static_cast<uint32_t>(entry.first.size())});
  if (entry.count > 1) {
    thread_local std::vector<uint32_t> comps;
    comps = entry.first;
    for (uint32_t i = 1; i < entry.count; ++i) {
      GKS_RETURN_IF_ERROR(DecodeDeltaId(&payload, &comps));
      out->Add(DeweySpan{comps.data(), static_cast<uint32_t>(comps.size())});
    }
  }
  if (!payload.empty()) {
    return Status::Corruption("posting block " + std::to_string(b) +
                              " has trailing bytes");
  }
  const DeweySpan last{entry.last.data(),
                       static_cast<uint32_t>(entry.last.size())};
  if (!(out->At(out->size() - 1) == last)) {
    return Status::Corruption("posting block " + std::to_string(b) +
                              " does not end at its skip-table last id");
  }
  BlocksDecodedCounter()->Add(1);
  return Status::OK();
}

}  // namespace

void EncodeBlockPostings(const PackedIds& ids, std::string* dst) {
  const size_t n = ids.size();
  const size_t blocks = (n + kPostingBlockSize - 1) / kPostingBlockSize;
  PutVarint64(dst, n);
  PutVarint64(dst, blocks);

  // Encode payloads first (into a scratch buffer) so the skip table can
  // record exact payload extents.
  std::string payloads;
  std::vector<uint32_t> payload_lens;
  payload_lens.reserve(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * kPostingBlockSize;
    const size_t end = std::min(n, begin + kPostingBlockSize);
    const size_t before = payloads.size();
    for (size_t i = begin + 1; i < end; ++i) {
      EncodeDeltaId(ids.At(i - 1), ids.At(i), &payloads);
    }
    payload_lens.push_back(static_cast<uint32_t>(payloads.size() - before));
  }

  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * kPostingBlockSize;
    const size_t end = std::min(n, begin + kPostingBlockSize);
    DeweySpan first = ids.At(begin);
    DeweySpan last = ids.At(end - 1);
    PutVarint32(dst, static_cast<uint32_t>(end - begin));
    PutVarint32(dst, payload_lens[b]);
    PutRawId(first, dst);
    const uint32_t shared = static_cast<uint32_t>(SharedPrefix(first, last));
    PutVarint32(dst, shared);
    PutVarint32(dst, last.size - shared);
    for (uint32_t c = shared; c < last.size; ++c) {
      PutVarint32(dst, last.data[c]);
    }
  }
  dst->append(payloads);
}

Status DecodeBlockPostings(std::string_view* input, PackedIds* out) {
  const std::string_view blob = *input;
  std::string_view in = blob;
  auto corrupt = [&blob, &in](const std::string& what) {
    return Status::Corruption(what + " at blob byte " +
                              std::to_string(blob.size() - in.size()));
  };
  uint64_t id_count = 0, block_count = 0;
  GKS_RETURN_IF_ERROR(GetVarint64(&in, &id_count));
  GKS_RETURN_IF_ERROR(GetVarint64(&in, &block_count));
  if (id_count > (1ull << 40)) {
    return corrupt("posting blob counts implausible");
  }
  if (block_count !=
      (id_count + kPostingBlockSize - 1) / kPostingBlockSize) {
    return corrupt("posting blob has " + std::to_string(block_count) +
                   " blocks for " + std::to_string(id_count) + " ids");
  }

  // Pass 1 validates the skip table and sums the payload extents, which
  // locates the payloads; pass 2 re-reads each entry and decodes its
  // block, so no per-list skip table outlives the call.
  const std::string_view skip_table = in;
  SkipEntry entry;
  uint64_t payload_total = 0;
  for (uint64_t b = 0; b < block_count; ++b) {
    if (Status st = ReadSkipEntry(&in, &entry); !st.ok()) {
      return corrupt(st.message());
    }
    const uint64_t want = std::min<uint64_t>(
        kPostingBlockSize, id_count - b * kPostingBlockSize);
    if (entry.count != want) {
      return corrupt("posting block " + std::to_string(b) + " holds " +
                     std::to_string(entry.count) + " ids, fixed blocking "
                     "needs " + std::to_string(want));
    }
    payload_total += entry.payload_len;
  }
  if (in.size() < payload_total) {
    return corrupt("posting blob payloads truncated");
  }
  std::string_view payloads = in.substr(0, payload_total);
  in.remove_prefix(payload_total);

  out->Reserve(out->size() + id_count, out->component_count());
  std::string_view skip = skip_table;
  for (uint64_t b = 0; b < block_count; ++b) {
    GKS_RETURN_IF_ERROR(ReadSkipEntry(&skip, &entry));
    GKS_RETURN_IF_ERROR(
        DecodeBlock(b, entry, payloads.substr(0, entry.payload_len), out));
    payloads.remove_prefix(entry.payload_len);
  }
  *input = in;
  return Status::OK();
}

}  // namespace gks
